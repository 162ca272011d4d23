#include "core/livesignal.hh"

#include <cassert>
#include <stdexcept>

#include "core/temporal.hh"

namespace fairco2::core
{

LiveIntensityService::LiveIntensityService()
    : LiveIntensityService(Config{})
{
}

LiveIntensityService::LiveIntensityService(const Config &config)
    : config_(config), forecasterReady_(false), samplesSeen_(0),
      refits_(0), pushesSinceRefit_(0), fitStartGlobal_(0),
      historyLenAtCompute_(0)
{
    assert(config.stepSeconds > 0.0);
    assert(config.warmupSteps > 0);
    assert(config.warmupSteps <= config.historySteps);
    assert(config.refitIntervalSteps > 0);
    assert(config.poolGramsPerSecond >= 0.0);
    if (config_.incrementalWindowPeriods > 0) {
        IncrementalSignalCore::Config core_config;
        core_config.windowPeriods =
            config_.incrementalWindowPeriods;
        core_config.periodSamples =
            config_.incrementalPeriodSamples;
        core_config.stepSeconds = config_.stepSeconds;
        if (config_.splits.size() > 1)
            core_config.innerSplits.assign(
                config_.splits.begin() + 1, config_.splits.end());
        core_config.cacheCapacity =
            config_.incrementalCacheCapacity;
        core_config.poolGramsPerSecond =
            config_.poolGramsPerSecond;
        core_ = std::make_unique<IncrementalSignalCore>(core_config);
    } else {
        history_.reserve(config.historySteps);
    }
}

bool
LiveIntensityService::ready() const
{
    if (core_)
        return core_->ready();
    return samplesSeen_ >= config_.warmupSteps;
}

void
LiveIntensityService::refit()
{
    const trace::TimeSeries series(history_, config_.stepSeconds);
    try {
        forecaster_.fit(series);
        fitStartGlobal_ = samplesSeen_ - history_.size();
        forecasterReady_ = true;
        ++refits_;
    } catch (const std::invalid_argument &) {
        // Not enough history for the seasonal model yet; the
        // window will be attributed without a forecast extension.
        forecasterReady_ = false;
    }
}

void
LiveIntensityService::recompute()
{
    std::vector<double> window(history_);
    if (forecasterReady_ && config_.horizonSteps > 0) {
        // Predict on the forecaster's own time axis: global sample
        // g maps to (g - fitStartGlobal_ + 0.5) * step, which keeps
        // the daily/weekly phase aligned even when the ring has
        // slid since the last refit.
        for (std::size_t h = 0; h < config_.horizonSteps; ++h) {
            const double t =
                (static_cast<double>(samplesSeen_ -
                                     fitStartGlobal_ + h) +
                 0.5) *
                config_.stepSeconds;
            window.push_back(
                std::max(0.0, forecaster_.predictAt(t)));
        }
    }
    const trace::TimeSeries window_series(std::move(window),
                                          config_.stepSeconds);
    const double pool = config_.poolGramsPerSecond *
        window_series.durationSeconds();
    const TemporalShapley engine;
    auto result =
        engine.attribute(window_series, pool, config_.splits);
    windowIntensity_ = std::move(result.intensity);
    historyLenAtCompute_ = history_.size();
}

void
LiveIntensityService::pushIncremental(double demand_sample)
{
    core_->push(demand_sample);
    ++samplesSeen_;
    if (!core_->ready())
        return;
    // Publish the full window on every push: with a warm cache this
    // is one period solve at most (all other sub-games hit), so the
    // classic "recompute per push" contract stays affordable. The
    // core supplies the pool policy and recovers from cache faults.
    auto result = core_->computeWindow(core_->windowPoolGrams());
    windowIntensity_ = std::move(result.intensity);
    historyLenAtCompute_ = core_->windowSamples();
}

void
LiveIntensityService::push(double demand_sample)
{
    assert(demand_sample >= 0.0);
    if (core_) {
        pushIncremental(demand_sample);
        return;
    }
    if (history_.size() == config_.historySteps)
        history_.erase(history_.begin());
    history_.push_back(demand_sample);
    ++samplesSeen_;
    ++pushesSinceRefit_;

    if (!ready())
        return;

    if (!forecasterReady_ ||
        pushesSinceRefit_ >= config_.refitIntervalSteps) {
        refit();
        pushesSinceRefit_ = 0;
    }
    recompute();
}

double
LiveIntensityService::currentIntensity() const
{
    if (!ready() || windowIntensity_.empty())
        throw std::logic_error(
            "live signal queried before warm-up completed");
    return windowIntensity_[historyLenAtCompute_ - 1];
}

trace::TimeSeries
LiveIntensityService::projectedIntensity() const
{
    if (!ready() || windowIntensity_.empty())
        throw std::logic_error(
            "live signal queried before warm-up completed");
    return windowIntensity_.slice(historyLenAtCompute_,
                                  windowIntensity_.size());
}

const trace::TimeSeries &
LiveIntensityService::windowIntensity() const
{
    return windowIntensity_;
}

} // namespace fairco2::core
