/**
 * @file
 * Live embodied-carbon intensity service (the deployment shape of
 * Figure 3): demand telemetry streams in sample by sample, a
 * periodically refit forecaster extends the window into the future,
 * and Temporal Shapley turns the blended window into a current and
 * projected intensity signal that carbon-aware schedulers can poll.
 *
 * Two deployment modes share the same surface:
 *
 *  - classic (incrementalWindowPeriods == 0): ring-buffered history,
 *    periodic forecaster refits, full TemporalShapley recompute on
 *    every push.
 *  - incremental (incrementalWindowPeriods > 0): the samples stream
 *    through a shapley::IncrementalTemporalEngine whose memoized
 *    sub-games make each window advance cost one fresh period solve;
 *    the forecast horizon is skipped (the engine attributes measured
 *    demand only) and projectedIntensity() is empty.
 */

#ifndef FAIRCO2_CORE_LIVESIGNAL_HH
#define FAIRCO2_CORE_LIVESIGNAL_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "core/signalcore.hh"
#include "forecast/forecaster.hh"
#include "shapley/incremental.hh"
#include "trace/timeseries.hh"

namespace fairco2::core
{

/** Streaming intensity-signal generator. */
class LiveIntensityService
{
  public:
    struct Config
    {
        /** Telemetry sample width, seconds. */
        double stepSeconds = 300.0;
        /** Samples retained for fitting/attribution (ring). */
        std::size_t historySteps = 21 * 288;
        /** Samples required before the service goes live. */
        std::size_t warmupSteps = 7 * 288;
        /** Forecast horizon appended to the window. */
        std::size_t horizonSteps = 9 * 288;
        /** Pushes between forecaster refits. */
        std::size_t refitIntervalSteps = 288;
        /** Hierarchical splits for the window attribution. */
        std::vector<std::size_t> splits{10, 9, 8, 12};
        /** Fleet fixed-carbon rate amortized into the window,
         *  grams per second of wall-clock time. */
        double poolGramsPerSecond = 1.0;

        /** Sliding-window size, in periods, for incremental mode;
         *  0 keeps the classic full-recompute service. */
        std::size_t incrementalWindowPeriods = 0;
        /** Samples per period in incremental mode. */
        std::size_t incrementalPeriodSamples = 12;
        /** Sub-game cache capacity in incremental mode (0 disables
         *  memoization). */
        std::size_t incrementalCacheCapacity = 64;
    };

    LiveIntensityService();
    explicit LiveIntensityService(const Config &config);

    /** Feed one demand sample (resource units, e.g. cores). */
    void push(double demand_sample);

    /** True once warmupSteps samples have arrived. */
    bool ready() const;

    /** Samples pushed so far. */
    std::size_t samplesSeen() const { return samplesSeen_; }

    /** Forecaster refits performed so far. */
    std::size_t refits() const { return refits_; }

    /**
     * True while the service is running on a degraded forecaster —
     * the last refit fell back to the seasonal-naive model, so the
     * projected horizon (and hence the published intensity tail) is
     * lower-fidelity. Health reporting surfaces this so consumers of
     * the live signal can tell full-model from fallback output.
     */
    bool forecastDegraded() const
    {
        return forecasterReady_ && forecaster_.degraded();
    }

    /**
     * Intensity for the current (latest) sample, grams per
     * resource-second. Requires ready().
     */
    double currentIntensity() const;

    /**
     * Projected intensity over the forecast horizon. Requires
     * ready().
     */
    trace::TimeSeries projectedIntensity() const;

    /** The full window signal (history + horizon). */
    const trace::TimeSeries &windowIntensity() const;

    const Config &config() const { return config_; }

    /** Incremental mode only: the engine's cache counters; null in
     *  classic mode. */
    const shapley::CacheStats *cacheStats() const
    {
        return core_ ? &core_->cacheStats() : nullptr;
    }

    /** Incremental mode only: the shared engine-ownership core (for
     *  health/fault reporting); null in classic mode. */
    const IncrementalSignalCore *signalCore() const
    {
        return core_.get();
    }

  private:
    void refit();
    void recompute();
    void pushIncremental(double demand_sample);

    Config config_;
    std::vector<double> history_;
    forecast::SeasonalForecaster forecaster_;
    bool forecasterReady_;
    std::size_t samplesSeen_;
    std::size_t refits_;
    std::size_t pushesSinceRefit_;
    /** Global sample index of the fit window's first sample, so
     *  predictions stay phase-aligned as the ring slides. */
    std::size_t fitStartGlobal_;
    trace::TimeSeries windowIntensity_;
    std::size_t historyLenAtCompute_;
    /** Engaged only in incremental mode: engine ownership, pool
     *  policy, and cache-fault recovery live in the shared core. */
    std::unique_ptr<IncrementalSignalCore> core_;
};

} // namespace fairco2::core

#endif // FAIRCO2_CORE_LIVESIGNAL_HH
