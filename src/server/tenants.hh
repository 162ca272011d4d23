/**
 * @file
 * Simulated multi-tenant telemetry population.
 *
 * The live-signal server is driven by N simulated tenants whose
 * arrival weights follow a Zipf(s) law over their rank: tenant 0 is
 * the fleet's heaviest pusher, the long tail barely registers. Three
 * service classes fall out of the same ranking — the top 1% of ranks
 * are Reserved capacity, the next 9% Standard, the rest Free tier —
 * and the admission controller gives each class its own token
 * bucket.
 *
 * Tenants push telemetry in *batches*: tenant t pushes every
 * batchPeriods(t) periods (heavy tenants push every period, tail
 * tenants accumulate up to Config::maxBatchPeriods periods before
 * pushing), and a batch offered at period p covers the closed
 * periods [p - batchPeriods(t), p). Per-tenant phase offsets stagger
 * the pushes so arrivals do not synchronize.
 *
 * Everything here is a pure function of (Config, tenant, period):
 * demand samples are materialized on demand from
 * `Rng(seed).fork(tenant).fork(period)` and expressed in **integer
 * demand units**. Integer units are the keystone of the server's
 * cross-shard determinism contract — per-shard sums are uint64 and
 * the fleet aggregate is an associative integer sum, so the fleet
 * demand series (and hence the published signal) is bit-identical
 * for any shard and thread count.
 */

#ifndef FAIRCO2_SERVER_TENANTS_HH
#define FAIRCO2_SERVER_TENANTS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "server/zipf.hh"

namespace fairco2::server
{

/** Service class of a tenant, by popularity rank tier. */
enum class TenantClass : std::uint8_t
{
    Reserved = 0, //!< top 1% of ranks (at least one tenant)
    Standard = 1, //!< next 9% of ranks
    Free = 2,     //!< the long tail
};

/** Upper bound on Config::meanDemandUnits: it keeps every demand
 *  sample (at most base * 1.5 * 1.25) below 2^52, the domain in
 *  which roundUnits() is exact. */
constexpr std::uint64_t kMaxMeanDemandUnits = std::uint64_t{1} << 50;

/**
 * std::llround for finite 0 <= @p x < 2^52, without the libm call:
 * in that range `x - trunc(x)` is computed exactly, so comparing it
 * with 0.5 rounds half away from zero as llround does.
 */
inline std::uint64_t
roundUnits(double x)
{
    auto units = static_cast<std::uint64_t>(x);
    if (x - static_cast<double>(units) >= 0.5)
        ++units;
    return units;
}

/** The implementations TenantPopulation::accumulateTenants() runs. */
enum class TenantKernel : std::uint8_t
{
    Scalar, //!< accumulatePeriod() per tenant: the reference
    Avx2,   //!< four tenants per AVX2 lane group (x86-64 only)
};

/** Avx2 on an x86-64 build whose CPU reports AVX2, else Scalar:
 *  the kernel accumulateTenants() picks by default. */
TenantKernel bestTenantKernel();

/**
 * The Avx2 kernel's random streams, for tests: steps Rng(seeds[i])
 * in lane i for `raw.size() / 4` draws and writes lane i's d-th
 * next() to raw[4 d + i] and that draw as uniform() returns it to
 * uniform[4 d + i]. Requires bestTenantKernel() == Avx2 and spans of
 * equal length, a multiple of 4; throws std::logic_error otherwise.
 */
void avx2LaneDraws(std::span<const std::uint64_t, 4> seeds,
                   std::span<std::uint64_t> raw,
                   std::span<double> uniform);

/** Number of TenantClass values (bucket array size). */
constexpr std::size_t kTenantClasses = 3;

/** Stable lower-case label, for counters and reports. */
const char *tenantClassName(TenantClass cls);

/**
 * One offered telemetry batch: tenant @p tenant pushing the closed
 * periods [period - coveredPeriods, period) at period @p period.
 */
struct BatchRef
{
    std::uint64_t tenant = 0;
    std::uint64_t period = 0;
    std::uint32_t coveredPeriods = 1;
    bool deferred = false; //!< retried after a Deferred decision
};

/** Deterministic Zipf-weighted tenant population. */
class TenantPopulation
{
  public:
    struct Config
    {
        std::size_t tenants = 1000; //!< population size N (>= 1)
        double zipfS = 1.1;         //!< Zipf skew exponent (>= 0)
        std::uint64_t seed = 42;    //!< root of all tenant streams
        std::size_t periodSamples = 12; //!< samples per period
        /** Cap on batchPeriods(t); also bounds how late a batch can
         *  arrive, which sets the server's close watermark. */
        std::size_t maxBatchPeriods = 8;
        /** Mean fleet-wide demand units per sample, split over
         *  tenants by Zipf weight (at most kMaxMeanDemandUnits). */
        std::uint64_t meanDemandUnits = 1u << 20;
    };

    explicit TenantPopulation(const Config &config);

    const Config &config() const { return config_; }

    std::size_t size() const { return config_.tenants; }

    /** Normalized Zipf arrival weight of @p tenant. */
    double weight(std::uint64_t tenant) const
    {
        return zipf_.weight(static_cast<std::size_t>(tenant));
    }

    /** Service class of @p tenant (by rank tier). */
    TenantClass classOf(std::uint64_t tenant) const;

    /** Periods between pushes for @p tenant: 1 for heavy ranks,
     *  growing with rank, clamped to Config::maxBatchPeriods. */
    std::uint32_t batchPeriods(std::uint64_t tenant) const;

    /** Deterministic phase offset in [0, batchPeriods(t)). */
    std::uint32_t phaseOffset(std::uint64_t tenant) const;

    /** True when @p tenant offers a batch at period @p period. */
    bool pushesAt(std::uint64_t tenant, std::uint64_t period) const;

    /** The batch @p tenant offers at @p period (requires
     *  pushesAt(tenant, period)). Covered periods are clipped at
     *  period 0 for the first push. */
    BatchRef batchAt(std::uint64_t tenant, std::uint64_t period) const;

    /**
     * The diurnal carrier of @p period: periodSamples factors
     * `1 + 0.5 sin(2 pi phase)` over a 24-period day. It depends
     * only on (period, sample), so every tenant shares it; callers
     * compute it once per period and pass it to accumulatePeriod().
     */
    std::vector<double> diurnalCarrier(std::uint64_t period) const;

    /**
     * Add @p tenant's demand units for @p period into @p out
     * (periodSamples slots) and return the units added. @p carrier
     * must be diurnalCarrier(period); both spans must hold exactly
     * periodSamples slots. Allocation-free, const, and
     * pure in (seed, tenant, period), so it is safe to call
     * concurrently on disjoint outputs.
     */
    std::uint64_t accumulatePeriod(std::uint64_t tenant,
                                   std::uint64_t period,
                                   std::span<const double> carrier,
                                   std::span<std::uint64_t> out) const;

    /**
     * Add the demand of every tenant in @p tenants for @p period into
     * @p out and return the units added: bit for bit what calling
     * accumulatePeriod() on each tenant in turn adds and returns
     * (DESIGN.md, "Live-signal server", gives the argument). The
     * spans are as accumulatePeriod() takes them; tenants may repeat.
     * @p kernel Avx2 runs four tenants per lane group and requires
     * bestTenantKernel() == Avx2 (std::logic_error otherwise); Scalar
     * is the reference. Const and pure like accumulatePeriod().
     */
    std::uint64_t
    accumulateTenants(std::uint64_t period,
                      std::span<const double> carrier,
                      std::span<const std::uint64_t> tenants,
                      std::span<std::uint64_t> out,
                      TenantKernel kernel = bestTenantKernel()) const;

    /**
     * Materialize @p tenant's demand for @p period: periodSamples
     * integer demand units, pure in (seed, tenant, period). The
     * shape is the diurnal carrier times per-sample jitter, scaled
     * by the tenant's Zipf weight.
     */
    std::vector<std::uint64_t>
    materializePeriod(std::uint64_t tenant, std::uint64_t period) const;

    /** Mean demand units per sample for @p tenant (the diurnal
     *  carrier's midline before jitter). */
    std::uint64_t baseUnits(std::uint64_t tenant) const;

  private:
    Config config_;
    Zipf zipf_;
    Rng base_;
    std::size_t reservedRanks_; //!< ranks [0, reservedRanks_)
    std::size_t standardRanks_; //!< ranks [reserved, standardRanks_)
};

} // namespace fairco2::server

#endif // FAIRCO2_SERVER_TENANTS_HH
