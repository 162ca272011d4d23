/**
 * @file
 * The Shapley stage's degradation ladder.
 *
 * Up to four rungs, all of which preserve the efficiency axiom
 * (attributed + unattributed == pool) by construction:
 *
 *  - incremental (only when PipelineConfig enables it): the
 *    sliding-window IncrementalTemporalEngine streams the demand
 *    window period by period, memoizing sub-game solves; a
 *    CacheIntegrityError (e.g. from the fault plan's `cache-corrupt`
 *    key) crashes the attempt and descends to the next rung.
 *  - exact: the full hierarchical Temporal Shapley attribution
 *    (TemporalShapley::attribute) — the paper's signal. Level 0 when
 *    incremental mode is off, the full-recompute fallback otherwise.
 *  - sampled: a single-level peak game over at most
 *    kSampledMaxPeriods coarse periods, solved by permutation
 *    sampling with a trial budget the supervisor shrinks as the
 *    deadline drains; intensities are normalized per Eq. 5
 *    (y_i = phi_i * C / sum_k phi_k q_k), so usage-weighted mass
 *    still sums to the pool.
 *  - proportional: the RUP baseline's constant intensity — no game
 *    at all, but still exactly efficient.
 *
 * The property tests assert the axiom at every rung within
 * kEfficiencyTolerance (relative); the chaos soak re-asserts it on
 * every degraded scenario.
 */

#ifndef FAIRCO2_PIPELINE_ATTRIBUTION_HH
#define FAIRCO2_PIPELINE_ATTRIBUTION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "trace/timeseries.hh"

namespace fairco2::resilience
{
class FaultPlan;
}

namespace fairco2::pipeline
{

/** Ladder depth of the Shapley stage without the incremental rung
 *  (levels 0..2); incremental mode prepends one more level. */
constexpr std::uint32_t kShapleyMaxLevel = 2;

/** Players in the level-1 sampled peak game (must stay <= 64,
 *  the CoalitionGame mask width). */
constexpr std::size_t kSampledMaxPeriods = 60;

/** Relative efficiency tolerance every rung is tested against:
 *  |attributed + unattributed - pool| <= tol * pool. Level 0 and 2
 *  are exact up to rounding; level 1 normalizes sampled values, so
 *  all three sit far inside this bound. */
constexpr double kEfficiencyTolerance = 1e-6;

/** What every ladder rung produces. */
struct AttributionOutput
{
    trace::TimeSeries intensity; //!< g per resource-second, per step
    double attributedGrams = 0.0;
    double unattributedGrams = 0.0; //!< pool minus attributed
    std::size_t leafPeriods = 0;    //!< attribution granularity
    std::uint64_t operations = 0;   //!< solver work (level 0 only)
};

/** Level 0: exact hierarchical Temporal Shapley. */
AttributionOutput
attributeExact(const trace::TimeSeries &window, double pool_grams,
               const std::vector<std::size_t> &splits);

/**
 * Level 1: single-level sampled peak game over at most @p periods
 * coarse periods with @p permutations sampled permutations (clamped
 * to >= 1). Randomness comes from forked streams of @p base, so the
 * result is pure in (window, pool, periods, permutations, seed).
 */
AttributionOutput
attributeSampled(const trace::TimeSeries &window, double pool_grams,
                 std::size_t periods, std::size_t permutations,
                 const Rng &base);

/** Level 2: RUP-baseline constant intensity. */
AttributionOutput
attributeProportional(const trace::TimeSeries &window,
                      double pool_grams);

/**
 * Incremental rung: stream @p window through a sliding
 * IncrementalTemporalEngine of @p window_periods periods of
 * @p period_samples samples each (0 derives a period size that makes
 * the window span half the trace, so the replay always slides) and
 * publish the newest period's intensity on every advance. Attribution covers the samples the sliding window visits
 * (a multiple of the period size); the pool share of any tail samples
 * stays unattributed, so attributed + unattributed == pool by
 * construction. @p inner_splits shape each period's inner hierarchy
 * and @p cache_capacity bounds the sub-game cache (0 = memoization
 * off) — every capacity yields byte-identical output. When @p plan
 * carries a nonzero `cache-corrupt` probability,
 * cache entries are deterministically corrupted before some advances;
 * the resulting CacheIntegrityError propagates to the caller (the
 * supervisor turns it into a stage crash and falls back to
 * attributeExact).
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
