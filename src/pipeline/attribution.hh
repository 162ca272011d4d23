/**
 * @file
 * The attribution methods the pipeline publishes from.
 *
 * All three preserve the efficiency axiom (attributed + unattributed
 * == pool) by construction:
 *
 *  - exact: the full hierarchical Temporal Shapley attribution
 *    (TemporalShapley::attribute) — the paper's signal;
 *  - incremental: the sliding-window IncrementalTemporalEngine
 *    streams the demand window period by period, memoizing sub-game
 *    solves; a CacheIntegrityError (e.g. from the fault plan's
 *    `cache-corrupt` key) propagates to the caller, and
 *    runAttributionPipeline answers it with attributeExact;
 *  - proportional: the RUP baseline's constant intensity — no game
 *    at all. Billing prices every consumer against it for
 *    comparison, and the serve overload governor's top rung
 *    publishes it.
 */

#ifndef FAIRCO2_PIPELINE_ATTRIBUTION_HH
#define FAIRCO2_PIPELINE_ATTRIBUTION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/timeseries.hh"

namespace fairco2::resilience
{
class FaultPlan;
}

namespace fairco2::pipeline
{

/** Relative efficiency tolerance every method is tested against:
 *  |attributed + unattributed - pool| <= tol * pool. Every method is
 *  exact up to rounding, so all sit far inside this bound. */
constexpr double kEfficiencyTolerance = 1e-6;

/** What every attribution method produces. */
struct AttributionOutput
{
    trace::TimeSeries intensity; //!< g per resource-second, per step
    double attributedGrams = 0.0;
    double unattributedGrams = 0.0; //!< pool minus attributed
    std::size_t leafPeriods = 0;    //!< attribution granularity
    std::uint64_t operations = 0;   //!< solver work (0 for RUP)
};

/** Exact hierarchical Temporal Shapley. */
AttributionOutput
attributeExact(const trace::TimeSeries &window, double pool_grams,
               const std::vector<std::size_t> &splits);

/** RUP-baseline constant intensity. */
AttributionOutput
attributeProportional(const trace::TimeSeries &window,
                      double pool_grams);

/**
 * Stream @p window through a sliding IncrementalTemporalEngine of
 * @p window_periods periods of @p period_samples samples each (0
 * derives a period size that makes the window span half the trace,
 * so the replay always slides) and publish the newest period's
 * intensity on every advance. Attribution covers the samples the
 * sliding window visits
 * (a multiple of the period size); the pool share of any tail samples
 * stays unattributed, so attributed + unattributed == pool by
 * construction. @p inner_splits shape each period's inner hierarchy
 * and @p cache_capacity bounds the sub-game cache (0 = memoization
 * off) — every capacity yields byte-identical output. When @p plan
 * carries a nonzero `cache-corrupt` probability, cache entries are
 * deterministically corrupted before some advances; the resulting
 * CacheIntegrityError propagates to the caller.
 */
AttributionOutput
attributeIncremental(const trace::TimeSeries &window,
                     double pool_grams, std::size_t window_periods,
                     std::size_t period_samples,
                     const std::vector<std::size_t> &inner_splits,
                     std::size_t cache_capacity,
                     const resilience::FaultPlan *plan = nullptr);

} // namespace fairco2::pipeline

#endif // FAIRCO2_PIPELINE_ATTRIBUTION_HH
