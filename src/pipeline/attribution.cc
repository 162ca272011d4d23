#include "pipeline/attribution.hh"

#include <algorithm>

#include "common/obs.hh"
#include "core/baselines.hh"
#include "core/temporal.hh"
#include "resilience/faultplan.hh"
#include "shapley/incremental.hh"

namespace fairco2::pipeline
{

AttributionOutput
attributeExact(const trace::TimeSeries &window, double pool_grams,
               const std::vector<std::size_t> &splits)
{
    FAIRCO2_SPAN("pipeline.attribute.exact");
    const auto result =
        core::TemporalShapley().attribute(window, pool_grams, splits);
    AttributionOutput out;
    out.intensity = result.intensity;
    out.attributedGrams = result.attributedGrams;
    out.unattributedGrams = result.unattributedGrams;
    out.leafPeriods = result.leafPeriods;
    out.operations = result.operations;
    return out;
}

AttributionOutput
attributeProportional(const trace::TimeSeries &window,
                      double pool_grams)
{
    FAIRCO2_SPAN("pipeline.attribute.proportional");
    AttributionOutput out;
    out.intensity = core::rupIntensity(window, pool_grams);
    out.attributedGrams =
        core::attributeUsage(out.intensity, window);
    out.unattributedGrams = pool_grams - out.attributedGrams;
    out.leafPeriods = window.empty() ? 0 : 1;
    return out;
}

AttributionOutput
attributeIncremental(const trace::TimeSeries &window,
                     double pool_grams, std::size_t window_periods,
                     std::size_t period_samples,
                     const std::vector<std::size_t> &inner_splits,
                     std::size_t cache_capacity,
                     const resilience::FaultPlan *plan)
{
    FAIRCO2_SPAN("pipeline.attribute.incremental");
    AttributionOutput out;
    const std::size_t n = window.size();
    if (n == 0) {
        out.intensity = window;
        out.unattributedGrams = pool_grams;
        return out;
    }

    // Clamp the sliding-window shape to the trace: W periods of M
    // samples (M == 0 derives a period size that makes the window
    // span half the trace, so the replay always slides).
    const std::size_t W =
        std::max<std::size_t>(1, std::min(window_periods, n));
    const std::size_t M = period_samples == 0
        ? std::max<std::size_t>(1, n / (2 * W))
        : std::max<std::size_t>(1, std::min(period_samples, n / W));

    shapley::IncrementalTemporalEngine::Config config;
    config.windowPeriods = W;
    config.periodSamples = M;
    config.stepSeconds = window.stepSeconds();
    config.innerSplits = inner_splits;
    config.cacheCapacity = cache_capacity;
    shapley::IncrementalTemporalEngine engine(config);

    // Each sliding window spans W*M of the n samples; its pool share
    // is the same fraction, so a fully warm slide re-attributes the
    // whole-trace pool at the window's own scale.
    const double pool_window =
        pool_grams * static_cast<double>(W * M) /
        static_cast<double>(n);

    // Push the trace period by period; publish the first full window,
    // then every newest-period advance.
    std::vector<double> values(n, 0.0);
    const std::size_t total_periods = n / M;
    const auto &samples = window.values();
    std::uint64_t closed = 0;
    for (std::size_t p = 0; p < total_periods; ++p) {
        for (std::size_t i = 0; i < M; ++i)
            engine.pushSample(samples[p * M + i]);
        if (engine.periodsClosed() == closed)
            continue;
        closed = engine.periodsClosed();
        if (!engine.windowReady())
            continue;
        if (closed == W) {
            // First full window: publish all W periods at once.
            const auto full = engine.computeWindow(pool_window);
            const auto &intensity = full.intensity.values();
            std::copy(intensity.begin(), intensity.end(),
                      values.begin());
            out.leafPeriods += full.leafPeriods;
            out.operations += full.operations;
            continue;
        }
        // A window advance: optionally corrupt the warm cache first
        // (the `cache-corrupt` fault key), then publish only the
        // newest period's share.
        const std::uint64_t advance = closed - W;
        if (plan != nullptr &&
            plan->fires(resilience::FaultSite::CacheCorrupt,
                        advance) &&
            engine.corruptCacheEntryForTest()) {
            plan->noteInjected();
            FAIRCO2_COUNT("resilience.fault.cache_corrupt", 1);
        }
        const auto advance_result =
            engine.computeNewestPeriod(pool_window);
        std::copy(advance_result.intensity.begin(),
                  advance_result.intensity.end(),
                  values.begin() +
                      static_cast<std::ptrdiff_t>((closed - 1) * M));
        out.leafPeriods += advance_result.leafPeriods;
        out.operations += advance_result.operations;
    }

    // Conservation by construction: whatever intensity mass the
    // sliding publication left on the trace is attributed, the rest
    // of the pool (including any tail samples past the last full
    // period) stays unattributed.
    double attributed = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        attributed += values[i] * samples[i];
    out.attributedGrams = attributed * window.stepSeconds();
    out.unattributedGrams = pool_grams - out.attributedGrams;
    out.intensity = trace::TimeSeries(std::move(values),
                                      window.stepSeconds());
    return out;
}

} // namespace fairco2::pipeline
