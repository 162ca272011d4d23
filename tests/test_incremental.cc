/**
 * @file
 * Differential and edge-case tests for the incremental sliding-window
 * Temporal Shapley engine. The central oracle everywhere: the
 * memoizing engine (any cache capacity) must be *byte-identical* to
 * the from-scratch engine (capacity 0), and a single full window must
 * be byte-identical to TemporalShapley::attribute with split counts
 * {windowPeriods, innerSplits...}.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "carbon/amortization.hh"
#include "common/errors.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/livesignal.hh"
#include "core/temporal.hh"
#include "pipeline/attribution.hh"
#include "pipeline/health.hh"
#include "pipeline/runner.hh"
#include "resilience/faultplan.hh"
#include "shapley/incremental.hh"
#include "trace/generators.hh"
#include "trace/timeseries.hh"

namespace fairco2::shapley
{
namespace
{

using trace::TimeSeries;

const pipeline::StageHealth *
findStage(const pipeline::RunHealth &health, const std::string &name)
{
    for (const auto &stage : health.stages)
        if (stage.name == name)
            return &stage;
    return nullptr;
}

std::vector<double>
syntheticDemand(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> values(n);
    for (auto &v : values)
        v = rng.uniform(0.0, 100.0);
    return values;
}

IncrementalTemporalEngine::Config
engineConfig(std::size_t window_periods, std::size_t period_samples,
             std::vector<std::size_t> inner_splits,
             std::size_t cache_capacity,
             std::size_t sampled_permutations = 0)
{
    IncrementalTemporalEngine::Config config;
    config.windowPeriods = window_periods;
    config.periodSamples = period_samples;
    config.stepSeconds = 300.0;
    config.innerSplits = std::move(inner_splits);
    config.cacheCapacity = cache_capacity;
    config.sampledPermutations = sampled_permutations;
    return config;
}

/**
 * Stream @p samples through an engine and collect everything it
 * publishes: the first full window, then the newest period of every
 * advance. @p pools supplies a per-compute carbon pool (reused
 * cyclically), so amortization-boundary scenarios can vary the pool
 * across advances.
 */
std::vector<double>
publishedStream(const IncrementalTemporalEngine::Config &config,
                const std::vector<double> &samples,
                const std::vector<double> &pools)
{
    IncrementalTemporalEngine engine(config);
    std::vector<double> published;
    std::uint64_t closed = 0;
    std::size_t computes = 0;
    for (const double sample : samples) {
        engine.pushSample(sample);
        if (engine.periodsClosed() == closed)
            continue;
        closed = engine.periodsClosed();
        if (!engine.windowReady())
            continue;
        const double pool = pools[computes % pools.size()];
        ++computes;
        if (closed == config.windowPeriods) {
            const auto full = engine.computeWindow(pool);
            const auto &values = full.intensity.values();
            published.insert(published.end(), values.begin(),
                             values.end());
        } else {
            const auto advance = engine.computeNewestPeriod(pool);
            published.insert(published.end(),
                             advance.intensity.begin(),
                             advance.intensity.end());
        }
    }
    return published;
}

TEST(IncrementalEngine, SingleWindowMatchesTemporalShapleyBitwise)
{
    const std::size_t W = 6, M = 10;
    const auto samples = syntheticDemand(W * M, 17);
    const double pool = 12345.0;

    IncrementalTemporalEngine engine(engineConfig(W, M, {5}, 64));
    for (const double s : samples)
        engine.pushSample(s);
    ASSERT_TRUE(engine.windowReady());
    const auto incremental = engine.computeWindow(pool);

    const TimeSeries demand(samples, 300.0);
    const auto full =
        core::TemporalShapley().attribute(demand, pool, {W, 5});

    ASSERT_EQ(incremental.intensity.size(), full.intensity.size());
    for (std::size_t i = 0; i < full.intensity.size(); ++i)
        EXPECT_EQ(incremental.intensity[i], full.intensity[i])
            << "sample " << i;
    EXPECT_EQ(incremental.attributedGrams, full.attributedGrams);
    EXPECT_EQ(incremental.unattributedGrams,
              full.unattributedGrams);
    EXPECT_EQ(incremental.leafPeriods, full.leafPeriods);
    EXPECT_EQ(incremental.operations, full.operations);
}

TEST(IncrementalEngine, CachedMatchesUncachedExactMode)
{
    const std::size_t W = 8, M = 12;
    const auto samples = syntheticDemand(30 * M, 23);
    const std::vector<double> pools{5000.0};
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        parallel::setThreadCount(threads);
        const auto cached = publishedStream(
            engineConfig(W, M, {4, 3}, 64), samples, pools);
        const auto uncached = publishedStream(
            engineConfig(W, M, {4, 3}, 0), samples, pools);
        EXPECT_EQ(cached, uncached) << "threads=" << threads;
    }
    parallel::setThreadCount(1);
}

TEST(IncrementalEngine, CachedMatchesUncachedSampledMode)
{
    const std::size_t W = 8, M = 12;
    const auto samples = syntheticDemand(30 * M, 29);
    const std::vector<double> pools{5000.0};
    std::vector<double> reference;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{8}}) {
        parallel::setThreadCount(threads);
        const auto cached = publishedStream(
            engineConfig(W, M, {4}, 64, 48), samples, pools);
        const auto uncached = publishedStream(
            engineConfig(W, M, {4}, 0, 48), samples, pools);
        EXPECT_EQ(cached, uncached) << "threads=" << threads;
        if (reference.empty())
            reference = cached;
        // Bit-identical across --threads N, not merely across cache
        // capacities.
        EXPECT_EQ(cached, reference) << "threads=" << threads;
    }
    parallel::setThreadCount(1);
}

TEST(IncrementalEngine, WeekLongTraceDifferentialAcrossThreads)
{
    // A week of 5-minute samples, one-hour periods, one-day window —
    // the deployment shape of the live signal.
    Rng rng(42);
    trace::AzureLikeGenerator::Config azure;
    azure.days = 7.0;
    azure.stepSeconds = 300.0;
    const auto demand = trace::AzureLikeGenerator(azure).generate(rng);
    const std::vector<double> samples = demand.values();
    const std::vector<double> pools{250000.0};

    std::vector<double> reference;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        parallel::setThreadCount(threads);
        const auto cached = publishedStream(
            engineConfig(24, 12, {6}, 64, 32), samples, pools);
        const auto uncached = publishedStream(
            engineConfig(24, 12, {6}, 0, 32), samples, pools);
        EXPECT_EQ(cached, uncached) << "threads=" << threads;
        if (reference.empty())
            reference = cached;
        EXPECT_EQ(cached, reference) << "threads=" << threads;
    }
    parallel::setThreadCount(1);
}

TEST(IncrementalEngine, WindowAdvanceAcrossAmortizationBoundary)
{
    // The carbon pool per window comes from an amortization schedule
    // whose end-of-life lands mid-stream, so consecutive advances see
    // sharply different (eventually zero) pools. Cache reuse must not
    // leak any carbon-dependent state between them.
    const std::size_t W = 4, M = 6;
    const auto samples = syntheticDemand(20 * M, 31);
    const double window_seconds = W * M * 300.0;
    const carbon::UniformAmortization schedule(1.0e6,
                                               3.0 * window_seconds);
    std::vector<double> pools;
    for (std::size_t k = 0; k < 17; ++k)
        pools.push_back(schedule.windowGrams(
            k * M * 300.0, k * M * 300.0 + window_seconds));

    const auto cached = publishedStream(
        engineConfig(W, M, {3}, 64), samples, pools);
    const auto uncached = publishedStream(
        engineConfig(W, M, {3}, 0), samples, pools);
    EXPECT_EQ(cached, uncached);

    // Past end-of-life the window pool is zero, so the published
    // intensity tail must be exactly zero.
    ASSERT_GT(pools.size(), 12u);
    EXPECT_EQ(pools.back(), 0.0);
    for (std::size_t i = cached.size() - M; i < cached.size(); ++i)
        EXPECT_EQ(cached[i], 0.0);
}

TEST(IncrementalEngine, SinglePeriodWindow)
{
    const std::size_t M = 8;
    const auto samples = syntheticDemand(10 * M, 37);
    const std::vector<double> pools{777.0};
    const auto cached = publishedStream(
        engineConfig(1, M, {4}, 64), samples, pools);
    const auto uncached = publishedStream(
        engineConfig(1, M, {4}, 0), samples, pools);
    EXPECT_EQ(cached, uncached);
    ASSERT_EQ(cached.size(), 10 * M);

    // With W = 1 the top-level game is trivial: each period gets the
    // whole pool, so every period attributes all 777 g.
    IncrementalTemporalEngine engine(engineConfig(1, M, {4}, 64));
    for (std::size_t i = 0; i < M; ++i)
        engine.pushSample(samples[i]);
    const auto window = engine.computeWindow(777.0);
    EXPECT_NEAR(window.attributedGrams, 777.0, 1e-9);
    EXPECT_NEAR(window.unattributedGrams, 0.0, 1e-9);
}

TEST(IncrementalEngine, AllZeroDemandPeriods)
{
    const std::size_t W = 4, M = 6;
    std::vector<double> samples(12 * M, 0.0);
    // Periods 6.. carry demand again: the engine must recover from a
    // stretch of all-zero periods without dividing by the zero
    // Shapley mass.
    for (std::size_t i = 6 * M; i < samples.size(); ++i)
        samples[i] = 50.0 + static_cast<double>(i % 7);

    const std::vector<double> pools{1000.0};
    const auto cached = publishedStream(
        engineConfig(W, M, {3}, 64), samples, pools);
    const auto uncached = publishedStream(
        engineConfig(W, M, {3}, 0), samples, pools);
    EXPECT_EQ(cached, uncached);

    // The first window is entirely zero demand: zero intensity, the
    // whole pool unattributed.
    IncrementalTemporalEngine engine(engineConfig(W, M, {3}, 64));
    for (std::size_t i = 0; i < W * M; ++i)
        engine.pushSample(0.0);
    const auto window = engine.computeWindow(1000.0);
    for (std::size_t i = 0; i < window.intensity.size(); ++i)
        EXPECT_EQ(window.intensity[i], 0.0);
    EXPECT_EQ(window.attributedGrams, 0.0);
    EXPECT_EQ(window.unattributedGrams, 1000.0);
}

TEST(IncrementalEngine, EvictionUnderCapacityOne)
{
    const std::size_t W = 5, M = 6;
    const auto samples = syntheticDemand(20 * M, 41);
    const std::vector<double> pools{3000.0};

    const auto tiny = publishedStream(
        engineConfig(W, M, {3}, 1), samples, pools);
    const auto uncached = publishedStream(
        engineConfig(W, M, {3}, 0), samples, pools);
    EXPECT_EQ(tiny, uncached);

    // A capacity-1 cache thrashes: every gather loop evicts, and the
    // stats must say so.
    IncrementalTemporalEngine engine(engineConfig(W, M, {3}, 1));
    std::uint64_t closed = 0;
    for (const double s : samples) {
        engine.pushSample(s);
        if (engine.periodsClosed() != closed &&
            engine.windowReady()) {
            closed = engine.periodsClosed();
            (void)engine.computeNewestPeriod(3000.0);
        }
    }
    EXPECT_LE(engine.cacheSize(), 1u);
    EXPECT_GT(engine.cacheStats().evictions, 0u);
    EXPECT_GT(engine.cacheStats().misses,
              engine.cacheStats().hits);
}

TEST(IncrementalEngine, CacheStatsAndObsCounters)
{
    obs::resetForTest();
    obs::setEnabled(true);
    const std::size_t W = 4, M = 6;
    const auto samples = syntheticDemand(12 * M, 43);
    IncrementalTemporalEngine engine(engineConfig(W, M, {3}, 64));
    std::uint64_t closed = 0;
    for (const double s : samples) {
        engine.pushSample(s);
        if (engine.periodsClosed() != closed &&
            engine.windowReady()) {
            closed = engine.periodsClosed();
            (void)engine.computeWindow(2000.0);
        }
    }
    const auto &stats = engine.cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.invalidations, 0u);

    EXPECT_EQ(obs::counter("shapley.cache.hit").value(),
              stats.hits);
    EXPECT_EQ(obs::counter("shapley.cache.miss").value(),
              stats.misses);
    EXPECT_EQ(obs::counter("shapley.cache.invalidate").value(),
              stats.invalidations);
    obs::resetForTest();
}

TEST(IncrementalEngine, CorruptionThrowsCacheIntegrityError)
{
    const std::size_t W = 4, M = 6;
    const auto samples = syntheticDemand(W * M, 47);
    IncrementalTemporalEngine engine(engineConfig(W, M, {3}, 64));
    for (const double s : samples)
        engine.pushSample(s);
    (void)engine.computeWindow(1000.0);
    ASSERT_TRUE(engine.corruptCacheEntryForTest());
    EXPECT_THROW((void)engine.computeWindow(1000.0),
                 CacheIntegrityError);
}

/** Push one full period of @p samples starting at period @p p. */
void
pushPeriod(IncrementalTemporalEngine &engine,
           const std::vector<double> &samples, std::size_t p,
           std::size_t M)
{
    for (std::size_t i = 0; i < M; ++i)
        engine.pushSample(samples[p * M + i]);
}

TEST(IncrementalEngine, RingAccountingIsExactAtFullCapacity)
{
    obs::resetForTest();
    obs::setEnabled(true);
    const std::size_t W = 5, M = 6;
    const auto samples = syntheticDemand(16 * M, 73);
    IncrementalTemporalEngine engine(engineConfig(W, M, {3}, W + 1));
    for (std::size_t p = 0; p < W; ++p)
        pushPeriod(engine, samples, p, M);
    (void)engine.computeWindow(900.0);
    EXPECT_EQ(engine.cacheSize(), W + 1);

    for (std::size_t p = W; p < 16; ++p) {
        const CacheStats before = engine.cacheStats();
        pushPeriod(engine, samples, p, M);
        (void)engine.computeNewestPeriod(900.0);
        const CacheStats &after = engine.cacheStats();
        // W-1 older slots hit; the new period and the window phi
        // miss; the period sliding out and its window's phi are
        // invalidated; nothing is ever evicted.
        EXPECT_EQ(after.hits - before.hits, W - 1) << "period " << p;
        EXPECT_EQ(after.misses - before.misses, 2u) << "period " << p;
        EXPECT_EQ(after.invalidations - before.invalidations, 2u)
            << "period " << p;
        EXPECT_EQ(after.evictions, 0u) << "period " << p;
        EXPECT_EQ(engine.cacheSize(), W + 1) << "period " << p;
        EXPECT_GT(after.rawBytes, 0u);
        EXPECT_EQ(after.storedBytes, after.rawBytes);
    }

    const auto &stats = engine.cacheStats();
    EXPECT_EQ(obs::counter("shapley.cache.hit").value(), stats.hits);
    EXPECT_EQ(obs::counter("shapley.cache.miss").value(),
              stats.misses);
    EXPECT_EQ(obs::counter("shapley.cache.evict").value(),
              stats.evictions);
    EXPECT_EQ(obs::counter("shapley.cache.invalidate").value(),
              stats.invalidations);
    obs::resetForTest();
}

TEST(IncrementalEngine, OutputByteIdenticalAtEveryCapacity)
{
    const std::size_t W = 6, M = 8;
    const auto samples = syntheticDemand(24 * M, 79);
    const std::vector<double> pools{4200.0, 3100.0};
    const auto reference = publishedStream(
        engineConfig(W, M, {4, 2}, 0), samples, pools);
    ASSERT_FALSE(reference.empty());
    for (const std::size_t capacity :
         {std::size_t{1}, W - 1, W, W + 1, std::size_t{256}}) {
        EXPECT_EQ(publishedStream(engineConfig(W, M, {4, 2}, capacity),
                                  samples, pools),
                  reference)
            << "capacity " << capacity;

        // Residency stays within the capacity between computes.
        IncrementalTemporalEngine engine(
            engineConfig(W, M, {4, 2}, capacity));
        for (std::size_t p = 0; p < 24; ++p) {
            pushPeriod(engine, samples, p, M);
            if (!engine.windowReady())
                continue;
            (void)engine.computeNewestPeriod(4200.0);
            EXPECT_LE(engine.cacheSize(), capacity)
                << "capacity " << capacity << " period " << p;
        }
    }
}

/** An engine one advance past a warm full window: the W-1 older
 *  slots are resident, the newest period is not solved yet. */
IncrementalTemporalEngine
engineReadyToAdvance(const std::vector<double> &samples, std::size_t W,
                     std::size_t M)
{
    IncrementalTemporalEngine engine(engineConfig(W, M, {3}, 64));
    for (std::size_t p = 0; p < W; ++p)
        pushPeriod(engine, samples, p, M);
    (void)engine.computeWindow(1000.0);
    pushPeriod(engine, samples, W, M);
    return engine;
}

TEST(IncrementalEngine, AdvanceCatchesAFlippedHeadWord)
{
    const std::size_t W = 4, M = 6;
    const auto samples = syntheticDemand((W + 1) * M, 83);
    for (const std::size_t word : {std::size_t{0}, std::size_t{1}}) {
        auto engine = engineReadyToAdvance(samples, W, M);
        ASSERT_TRUE(engine.corruptCacheEntryForTest(word));
        try {
            (void)engine.computeNewestPeriod(1000.0);
            FAIL() << "flipped head word " << word << " went unread";
        } catch (const CacheIntegrityError &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("period 1"), std::string::npos)
                << what;
            EXPECT_NE(what.find("stored 0x"), std::string::npos)
                << what;
        }
    }
}

TEST(IncrementalEngine, AdvanceSkipsTreeWordsAWindowComputeCatches)
{
    const std::size_t W = 4, M = 6;
    const auto samples = syntheticDemand((W + 1) * M, 89);
    auto clean = engineReadyToAdvance(samples, W, M);
    const auto expected = clean.computeNewestPeriod(1000.0);

    // Word 4 is the oldest slot's first child phi: part of the tree
    // an advance never walks for an older period.
    auto engine = engineReadyToAdvance(samples, W, M);
    ASSERT_TRUE(engine.corruptCacheEntryForTest(4));
    const auto published = engine.computeNewestPeriod(1000.0);
    EXPECT_EQ(published.intensity, expected.intensity);
    EXPECT_EQ(published.periodGrams, expected.periodGrams);
    EXPECT_THROW((void)engine.computeWindow(1000.0),
                 CacheIntegrityError);
}

TEST(IncrementalEngine, RejectsBadConfigAndInput)
{
    EXPECT_THROW(IncrementalTemporalEngine(engineConfig(0, 4, {}, 8)),
                 std::invalid_argument);
    EXPECT_THROW(IncrementalTemporalEngine(engineConfig(4, 0, {}, 8)),
                 std::invalid_argument);
    EXPECT_THROW(
        IncrementalTemporalEngine(engineConfig(4, 4, {0}, 8)),
        std::invalid_argument);
    IncrementalTemporalEngine engine(engineConfig(2, 2, {}, 8));
    EXPECT_THROW(engine.pushSample(
                     std::numeric_limits<double>::quiet_NaN()),
                 FatalDataError);
    EXPECT_THROW((void)engine.computeWindow(1.0), std::logic_error);
}

TEST(IncrementalAttribution, ConservesPoolAndMatchesEngineModes)
{
    const auto samples = syntheticDemand(400, 53);
    const TimeSeries window(samples, 300.0);
    const double pool = 44000.0;

    const auto cached = pipeline::attributeIncremental(
        window, pool, 8, 0, {4}, 64);
    const auto uncached = pipeline::attributeIncremental(
        window, pool, 8, 0, {4}, 0);
    ASSERT_EQ(cached.intensity.size(), uncached.intensity.size());
    for (std::size_t i = 0; i < cached.intensity.size(); ++i)
        EXPECT_EQ(cached.intensity[i], uncached.intensity[i]);
    EXPECT_EQ(cached.attributedGrams, uncached.attributedGrams);

    // The efficiency axiom holds by construction.
    EXPECT_NEAR(cached.attributedGrams + cached.unattributedGrams,
                pool, 1e-6 * pool);
}

TEST(IncrementalAttribution, CacheCorruptFaultPropagates)
{
    const auto samples = syntheticDemand(400, 59);
    const TimeSeries window(samples, 300.0);
    const auto plan =
        resilience::FaultPlan::parse("cache-corrupt=1");
    EXPECT_THROW((void)pipeline::attributeIncremental(
                     window, 44000.0, 8, 0, {4}, 64, &plan),
                 CacheIntegrityError);
    EXPECT_GT(plan.injectedCount(), 0u);
}

TEST(IncrementalPipeline, IncrementalRungProducesConservedSignal)
{
    pipeline::PipelineConfig config;
    config.demandSeries = TimeSeries(syntheticDemand(400, 61), 300.0);
    config.poolGrams = 50000.0;
    config.splits = {8, 4};
    config.incrementalWindowPeriods = 8;
    const auto result = pipeline::runAttributionPipeline(config);

    EXPECT_TRUE(result.health.ok);
    EXPECT_EQ(result.health.exitCode, 0);
    EXPECT_NEAR(result.attribution.attributedGrams +
                    result.attribution.unattributedGrams,
                config.poolGrams, 1e-6 * config.poolGrams);
    const auto *shapley_stage = findStage(result.health, "shapley");
    ASSERT_NE(shapley_stage, nullptr);
    EXPECT_EQ(shapley_stage->status, pipeline::StageStatus::Ok);
}

TEST(IncrementalPipeline, DegradesToExactOnCacheCorruption)
{
    pipeline::PipelineConfig config;
    config.demandSeries = TimeSeries(syntheticDemand(400, 67), 300.0);
    config.poolGrams = 50000.0;
    config.splits = {8, 4};
    config.incrementalWindowPeriods = 8;
    config.faultPlan = resilience::FaultPlan::parse("cache-corrupt=1");
    const auto result = pipeline::runAttributionPipeline(config);

    // The incremental engine throws on the corrupted cache; the exact
    // full recompute takes over and the run completes, degraded.
    EXPECT_TRUE(result.health.produced);
    EXPECT_TRUE(result.health.degraded);
    const auto *shapley_stage = findStage(result.health, "shapley");
    ASSERT_NE(shapley_stage, nullptr);
    EXPECT_EQ(shapley_stage->status,
              pipeline::StageStatus::Degraded);
    EXPECT_NEAR(result.attribution.attributedGrams +
                    result.attribution.unattributedGrams,
                config.poolGrams, 1e-6 * config.poolGrams);

    // The fallback output is the exact signal, bit for bit.
    const auto exact = pipeline::attributeExact(
        result.window, config.poolGrams, config.splits);
    ASSERT_EQ(result.attribution.intensity.size(),
              exact.intensity.size());
    for (std::size_t i = 0; i < exact.intensity.size(); ++i)
        EXPECT_EQ(result.attribution.intensity[i],
                  exact.intensity[i]);
}

TEST(IncrementalLiveSignal, StreamsThroughIncrementalEngine)
{
    core::LiveIntensityService::Config config;
    config.stepSeconds = 300.0;
    config.splits = {8, 4};
    config.poolGramsPerSecond = 0.5;
    config.incrementalWindowPeriods = 6;
    config.incrementalPeriodSamples = 8;
    core::LiveIntensityService service(config);

    const auto samples = syntheticDemand(120, 71);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        service.push(samples[i]);
        const bool window_filled = (i + 1) >= 6 * 8;
        EXPECT_EQ(service.ready(), window_filled) << "push " << i;
    }
    ASSERT_TRUE(service.ready());
    EXPECT_GT(service.currentIntensity(), 0.0);
    EXPECT_TRUE(service.projectedIntensity().empty());
    ASSERT_NE(service.cacheStats(), nullptr);
    EXPECT_GT(service.cacheStats()->hits, 0u);
}

} // namespace
} // namespace fairco2::shapley
