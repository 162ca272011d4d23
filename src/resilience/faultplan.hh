/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A FaultPlan turns a short spec string into a family of *pure*
 * fault decisions: whether telemetry sample i is dropped, whether
 * ingested row r is corrupted, whether node n fails during a
 * simulation, whether VM v is preempted. Every decision is derived
 * from the plan seed and the (site, index) pair through the same
 * counter-based Rng::fork machinery the Monte Carlo harnesses use,
 * so an injected fault pattern is bit-identical for any `--threads N`
 * and independent of the order in which call sites happen to query
 * the plan.
 *
 * Spec grammar (comma-separated key=value, all keys optional):
 *
 *     seed=42,drop=0.01,corrupt=0.005,nan=0.001,
 *     node-fail=0.02,vm-preempt=0.01,cache-corrupt=0.1
 *
 * `drop`/`corrupt` poison telemetry samples and ingested CSV rows,
 * `nan` perturbs values at module boundaries, `node-fail` is the
 * per-node probability of one failure during a simulated horizon,
 * and `vm-preempt` is the per-VM probability of early termination.
 * `cache-corrupt` flips one payload bit in the incremental Shapley
 * engine's sub-game cache before a window advance, so the engine's
 * checksum verification trips: `fairco2 run` then falls back to the
 * exact attribution, and `fairco2 serve` rebuilds the fleet engine.
 * Probabilities must be in [0, 1]; a malformed spec throws
 * std::invalid_argument (front ends turn that into exit 2).
 */

#ifndef FAIRCO2_RESILIENCE_FAULTPLAN_HH
#define FAIRCO2_RESILIENCE_FAULTPLAN_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/timeseries.hh"

namespace fairco2
{

class FlagSet;

namespace resilience
{

/** Where a fault decision applies; part of the decision's identity. */
enum class FaultSite : std::uint64_t
{
    TelemetryDrop = 1,    //!< generated telemetry sample lost
    TelemetryCorrupt = 2, //!< generated telemetry sample garbled
    IngestDrop = 3,       //!< ingested CSV row lost
    IngestCorrupt = 4,    //!< ingested CSV row garbled
    NanBoundary = 5,      //!< NaN injected at a module boundary
    NodeFail = 6,         //!< simulated node fails mid-horizon
    NodeFailTime = 7,     //!< when within the horizon it fails
    VmPreempt = 8,        //!< simulated VM preempted early
    VmPreemptTime = 9,    //!< how much of its lifetime survives
    CorruptValue = 10,    //!< replacement factor for corruption
    // 11-14 and 16 belonged to deleted sites; a site's number is part
    // of every decision's identity, so none is reused.
    CacheCorrupt = 15,    //!< incremental sub-game cache entry flips
};

/** Deterministic, thread-safe fault decision source. */
class FaultPlan
{
  public:
    /** Inactive plan: every decision is "no fault". */
    FaultPlan() = default;

    /** Parse a spec string; throws std::invalid_argument. */
    static FaultPlan parse(const std::string &spec);

    /** True when any fault probability is nonzero. */
    bool active() const { return active_; }

    /** The spec this plan was parsed from (empty when inactive). */
    const std::string &spec() const { return spec_; }

    /** Pure decision: does @p site fire for @p index? */
    bool fires(FaultSite site, std::uint64_t index) const;

    /**
     * Pure uniform draw in [lo, hi) for (site, index) — used for
     * fault *parameters* (failure time, preemption fraction,
     * corruption factor) so they are as order-independent as the
     * decisions themselves.
     */
    double draw(FaultSite site, std::uint64_t index, double lo,
                double hi) const;

    /**
     * Node failure time within [0, horizon) for node @p node, or a
     * negative value when the node does not fail under this plan.
     */
    double nodeFailureTime(std::size_t node, double horizon) const;

    /** Fraction of VM @p vm's lifetime that survives preemption,
     *  in [0.05, 0.95); negative when the VM is not preempted. */
    double vmPreemptionFraction(std::uint64_t vm) const;

    /** Total faults injected through this plan so far. */
    std::uint64_t injectedCount() const
    {
        return injected_.load(std::memory_order_relaxed);
    }

    /** Bump the injected-fault counter (call sites that fire). */
    void noteInjected(std::uint64_t n = 1) const
    {
        injected_.fetch_add(n, std::memory_order_relaxed);
    }

    double dropProbability() const { return drop_; }
    double corruptProbability() const { return corrupt_; }
    double nanProbability() const { return nan_; }
    double nodeFailProbability() const { return nodeFail_; }
    double vmPreemptProbability() const { return vmPreempt_; }
    double cacheCorruptProbability() const { return cacheCorrupt_; }

    FaultPlan(const FaultPlan &other) { *this = other; }
    FaultPlan &operator=(const FaultPlan &other);

  private:
    double probabilityFor(FaultSite site) const;

    std::string spec_;
    Rng root_{0};
    bool active_ = false;
    double drop_ = 0.0;
    double corrupt_ = 0.0;
    double nan_ = 0.0;
    double nodeFail_ = 0.0;
    double vmPreempt_ = 0.0;
    double cacheCorrupt_ = 0.0;
    mutable std::atomic<std::uint64_t> injected_{0};
};

/**
 * Poison a telemetry series in place: dropped samples become NaN and
 * corrupted samples are scaled by a deterministic factor in [-2, 2).
 * Returns the number of faults injected (also added to the plan's
 * counter and the resilience obs counters). Feed the result through
 * repairSeries() before attribution.
 */
std::uint64_t injectTelemetryFaults(std::vector<double> &values,
                                    const FaultPlan &plan);

/** Convenience overload over a TimeSeries. */
trace::TimeSeries injectTelemetryFaults(const trace::TimeSeries &series,
                                        const FaultPlan &plan,
                                        std::uint64_t *injected = nullptr);

/**
 * NaN perturbation at a module boundary: with the plan's `nan`
 * probability, value i becomes NaN. Returns faults injected.
 */
std::uint64_t injectBoundaryNans(std::vector<double> &values,
                                 const FaultPlan &plan);

/**
 * Register the shared `--fault-plan` flag. An empty value (the
 * default) leaves the plan inactive.
 */
void addFaultPlanFlag(FlagSet &flags, std::string *spec);

/**
 * Parse a `--fault-plan` value; on a malformed spec prints an error
 * and exits 2, mirroring FlagSet's handling of bad flag values.
 */
FaultPlan applyFaultPlanFlag(const std::string &spec);

} // namespace resilience
} // namespace fairco2

#endif // FAIRCO2_RESILIENCE_FAULTPLAN_HH
