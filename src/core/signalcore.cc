#include "core/signalcore.hh"

#include <utility>

#include "common/obs.hh"

namespace fairco2::core
{

namespace
{

shapley::SurrogateTemporalEngine::Config
engineConfigFor(const IncrementalSignalCore::Config &config)
{
    shapley::SurrogateTemporalEngine::Config sc;
    sc.engine.windowPeriods = config.windowPeriods;
    sc.engine.periodSamples = config.periodSamples;
    sc.engine.stepSeconds = config.stepSeconds;
    sc.engine.innerSplits = config.innerSplits;
    sc.engine.cacheCapacity = config.cacheCapacity;
    sc.engine.seed = config.seed;
    sc.model = config.surrogateModel;
    sc.tolerance = config.surrogateTol;
    return sc;
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
      engine_(std::make_unique<shapley::SurrogateTemporalEngine>(
          engineConfigFor(config)))
{
    partial_.reserve(config_.periodSamples);
}

shapley::SurrogateTemporalEngine::Counters
IncrementalSignalCore::surrogateCounters() const
{
    shapley::SurrogateTemporalEngine::Counters out = countersBase_;
    const auto &live = engine_->counters();
    out.accepts += live.accepts;
    out.rejects += live.rejects;
    out.rejectStructure += live.rejectStructure;
    out.rejectOutOfDistribution += live.rejectOutOfDistribution;
    out.rejectResidual += live.rejectResidual;
    out.rejectDegenerate += live.rejectDegenerate;
    return out;
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
    // corrupted engine's intended output bit for bit. Fold the
    // discarded engine's surrogate decisions into the stream base
    // so surrogateCounters() stays monotonic across rebuilds.
    countersBase_ = surrogateCounters();
    engine_ = std::make_unique<shapley::SurrogateTemporalEngine>(
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
