#include "core/signalcore.hh"

#include <utility>

#include "common/obs.hh"

namespace fairco2::core
{

namespace
{

shapley::IncrementalTemporalEngine::Config
engineConfigFor(const IncrementalSignalCore::Config &config)
{
    shapley::IncrementalTemporalEngine::Config ec;
    ec.windowPeriods = config.windowPeriods;
    ec.periodSamples = config.periodSamples;
    ec.stepSeconds = config.stepSeconds;
    ec.innerSplits = config.innerSplits;
    ec.cacheCapacity = config.cacheCapacity;
    ec.seed = config.seed;
    return ec;
}

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace

IncrementalSignalCore::IncrementalSignalCore(const Config &config)
    : config_(config),
      engine_(std::make_unique<shapley::IncrementalTemporalEngine>(
          engineConfigFor(config)))
{
    partial_.reserve(config_.periodSamples);
}

double
IncrementalSignalCore::windowPoolGrams() const
{
    return config_.poolGramsPerSecond *
           static_cast<double>(windowSamples()) *
           config_.stepSeconds;
}

void
IncrementalSignalCore::push(double demand_sample)
{
    engine_->pushSample(demand_sample);
    partial_.push_back(demand_sample);
    if (partial_.size() < config_.periodSamples)
        return;
    retained_.push_back(std::move(partial_));
    partial_ = {};
    partial_.reserve(config_.periodSamples);
    if (retained_.size() > config_.windowPeriods)
        retained_.pop_front();
    ++periodsClosed_;
}

void
IncrementalSignalCore::rebuildEngine()
{
    // Memoization is an optimization, never an input: a fresh
    // engine replaying the retained window samples reproduces the
    // corrupted engine's intended output bit for bit.
    engine_ = std::make_unique<shapley::IncrementalTemporalEngine>(
        engineConfigFor(config_));
    for (const std::vector<double> &period : retained_)
        for (double sample : period)
            engine_->pushSample(sample);
    ++rebuilds_;
    FAIRCO2_COUNT("core.signal.rebuilds", 1);
}

shapley::IncrementalTemporalEngine::WindowResult
IncrementalSignalCore::computeWindow(double pool_grams)
{
    try {
        return engine_->computeWindow(pool_grams);
    } catch (const shapley::CacheIntegrityError &) {
        rebuildEngine();
        return engine_->computeWindow(pool_grams);
    }
}

IncrementalSignalCore::Publication
IncrementalSignalCore::publishNewest(double pool_grams)
{
    Publication out;
    const std::size_t M = config_.periodSamples;
    if (firstWindow()) {
        const auto full = computeWindow(pool_grams);
        const auto &values = full.intensity.values();
        out.newestIntensity.assign(values.end() -
                                       static_cast<std::ptrdiff_t>(M),
                                   values.end());
        out.attributedGrams = full.attributedGrams;
    } else {
        shapley::IncrementalTemporalEngine::PeriodResult advance;
        try {
            advance = engine_->computeNewestPeriod(pool_grams);
        } catch (const shapley::CacheIntegrityError &) {
            rebuildEngine();
            advance = engine_->computeNewestPeriod(pool_grams);
        }
        out.newestIntensity = std::move(advance.intensity);
        out.attributedGrams = advance.periodGrams;
    }
    out.newestMeanIntensity = meanOf(out.newestIntensity);
    return out;
}

} // namespace fairco2::core
