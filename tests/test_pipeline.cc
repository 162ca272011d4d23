/**
 * @file
 * Tests for the end-to-end attribution pipeline: the signal `run`
 * publishes is the one its configuration names, the short-history
 * forecast fallback, stage failure and skip semantics, seeded fault
 * scenarios (exit-code contract, efficiency, thread invariance), the
 * RunHealth JSON contract, and the serve overload governor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "pipeline/attribution.hh"
#include "pipeline/health.hh"
#include "pipeline/overload.hh"
#include "pipeline/runner.hh"
#include "resilience/checkpoint.hh"
#include "trace/generators.hh"
#include "trace/timeseries.hh"

namespace fairco2::pipeline
{
namespace
{

/** RAII thread-count override so a failure can't leak the setting. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n)
        : saved_(parallel::threadCount())
    {
        parallel::setThreadCount(n);
    }
    ~ScopedThreads() { parallel::setThreadCount(saved_); }

  private:
    std::size_t saved_;
};

/** A bumpy but deterministic demand trace. */
trace::TimeSeries
demandTrace(std::size_t steps)
{
    std::vector<double> values(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        values[i] = 100.0 + 40.0 * std::sin(0.13 * double(i)) +
            (i % 7 == 0 ? 25.0 : 0.0);
    }
    return trace::TimeSeries(std::move(values), 300.0);
}

PipelineConfig
baseConfig()
{
    PipelineConfig config;
    config.demandSeries = demandTrace(288);
    config.poolGrams = 5.0e5;
    config.splits = {6, 6, 8};
    config.horizonSteps = 24;
    config.usageSeries.emplace_back("a", demandTrace(288));
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>{});
}

bool
bitwiseEqual(const trace::TimeSeries &a, const trace::TimeSeries &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.values().data(), b.values().data(),
                    a.size() * sizeof(double)) == 0;
}

TEST(Pipeline, FaultFreeRunIsHealthy)
{
    const auto result = runAttributionPipeline(baseConfig());
    EXPECT_TRUE(result.health.ok);
    EXPECT_TRUE(result.health.produced);
    EXPECT_FALSE(result.health.degraded);
    EXPECT_EQ(result.health.exitCode, 0);
    const auto *shapley = result.health.find("shapley");
    ASSERT_NE(shapley, nullptr);
    EXPECT_EQ(shapley->status, StageStatus::Ok);
    // Efficiency holds end to end.
    const double pool = 5.0e5;
    EXPECT_NEAR(result.attribution.attributedGrams +
                    result.attribution.unattributedGrams,
                pool, kEfficiencyTolerance * pool);
}

TEST(Pipeline, PublishesTheIncrementalSignalItNames)
{
    // Four weeks of 5-minute demand through a 168-period window: an
    // ordinary input, so the published signal must be the
    // incremental engine's, bit for bit — never a cheaper stand-in.
    trace::AzureLikeGenerator::Config gen;
    gen.days = 28.0;
    Rng rng(11);
    PipelineConfig config;
    config.demandSeries = trace::AzureLikeGenerator(gen).generate(rng);
    ASSERT_EQ(config.demandSeries.size(), 8064u);
    config.poolGrams = 1.0e7;
    config.incrementalWindowPeriods = 168;
    const auto result = runAttributionPipeline(config);

    EXPECT_TRUE(result.health.ok);
    const auto *shapley = result.health.find("shapley");
    ASSERT_NE(shapley, nullptr);
    EXPECT_EQ(shapley->status, StageStatus::Ok);
    const std::vector<std::size_t> inner(config.splits.begin() + 1,
                                         config.splits.end());
    const auto expected = attributeIncremental(
        config.demandSeries, config.poolGrams, 168, 0, inner,
        config.incrementalCacheCapacity);
    EXPECT_TRUE(bitwiseEqual(result.attribution.intensity,
                             expected.intensity));
    EXPECT_EQ(result.attribution.attributedGrams,
              expected.attributedGrams);
}

TEST(Pipeline, ShortHistoryGetsTheSeasonalNaiveForecast)
{
    // Histories shorter than the seasonal model's 22 features cannot
    // be fit: the forecast stage takes the seasonal-naive model and
    // says so. The signal CSV bytes are pinned (FNV-1a) to what the
    // same fallback has always produced for these inputs.
    const struct
    {
        std::size_t samples;
        std::uint64_t csvHash;
    } cases[] = {
        {4, 0x264c958e7bc1c1a0ULL},
        {16, 0x3ab620e219944b97ULL},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE("history samples " + std::to_string(c.samples));
        PipelineConfig config;
        config.demandSeries = demandTrace(c.samples);
        config.poolGrams = 5.0e5;
        config.horizonSteps = 12;
        config.signalOutPath = ::testing::TempDir() +
            "fairco2_short_" + std::to_string(c.samples) + ".csv";
        const auto result = runAttributionPipeline(config);

        EXPECT_TRUE(result.health.produced);
        EXPECT_EQ(result.health.exitCode, 0);
        const auto *forecast = result.health.find("forecast");
        ASSERT_NE(forecast, nullptr);
        EXPECT_EQ(forecast->status, StageStatus::Degraded);
        EXPECT_NE(forecast->note.find("seasonal-naive"),
                  std::string::npos)
            << forecast->note;
        EXPECT_EQ(result.window.size(), c.samples + 12);
        const std::string csv = readFile(config.signalOutPath);
        EXPECT_EQ(resilience::fnv1a64(csv.data(), csv.size()),
                  c.csvHash);
        std::remove(config.signalOutPath.c_str());
    }
}

TEST(Pipeline, ThrowingStageFailsTheRunAndSkipsTheRest)
{
    auto config = baseConfig();
    config.usageSeries.clear();
    config.usagePath = ::testing::TempDir() + "fairco2_no_such.csv";
    std::remove(config.usagePath.c_str());
    const auto result = runAttributionPipeline(config);

    EXPECT_FALSE(result.health.produced);
    EXPECT_FALSE(result.health.ok);
    EXPECT_EQ(result.health.exitCode, 1);
    const auto *ingest = result.health.find("ingest");
    ASSERT_NE(ingest, nullptr);
    EXPECT_EQ(ingest->status, StageStatus::Failed);
    // The stage's own error is the note.
    EXPECT_NE(ingest->note.find("fairco2_no_such.csv"),
              std::string::npos)
        << ingest->note;
    for (const char *later :
         {"forecast", "shapley", "interference", "report"}) {
        const auto *stage = result.health.find(later);
        ASSERT_NE(stage, nullptr) << later;
        EXPECT_EQ(stage->status, StageStatus::Skipped) << later;
        EXPECT_EQ(stage->note, "ingest failed") << later;
    }
}

TEST(Pipeline, SeededFaultScenariosKeepTheRunInvariants)
{
    // Telemetry faults repaired by interpolation, with and without
    // usage and a forecast horizon. Each scenario must honor the
    // exit-code contract, conserve the pool, bill finitely, and
    // produce the same health JSON and signal at 1 and 4 threads.
    const Rng root(42);
    std::size_t fault_free = 0, faulted = 0;
    for (std::uint64_t s = 0; s < 20; ++s) {
        Rng rng = root.fork(s);
        trace::AzureLikeGenerator::Config gen;
        gen.days = 2.0;
        gen.baseCores = 2000.0;
        Rng demand_rng = rng.fork(1);
        const auto demand =
            trace::AzureLikeGenerator(gen).generate(demand_rng);

        PipelineConfig config;
        config.demandSeries = demand;
        config.poolGrams = 1e6;
        config.splits = {6, 4, 4};
        config.badRowPolicy = resilience::BadRowPolicy::Interpolate;
        if (rng.uniform() < 0.5)
            config.horizonSteps = 72;
        if (rng.uniform() < 0.5) {
            std::vector<double> heavy(demand.size()),
                light(demand.size());
            for (std::size_t i = 0; i < demand.size(); ++i) {
                heavy[i] = 0.6 * demand[i];
                light[i] = 0.4 * demand[i];
            }
            config.usageSeries.emplace_back(
                "heavy", trace::TimeSeries(heavy, 300.0));
            config.usageSeries.emplace_back(
                "light", trace::TimeSeries(light, 300.0));
        }
        std::string spec;
        if (s % 5 != 0) {
            spec = "seed=" + std::to_string(rng.next() & 0xffffff);
            const std::size_t keys_before = spec.size();
            for (const char *key : {"drop", "corrupt", "nan"})
                if (rng.uniform() < 0.6)
                    spec += std::string(",") + key + "=" +
                        std::to_string(rng.uniform(0.001, 0.05));
            if (spec.size() == keys_before)
                spec += ",drop=0.02";
            config.faultPlan = resilience::FaultPlan::parse(spec);
        }
        SCOPED_TRACE("scenario " + std::to_string(s) + " plan '" +
                     spec + "'");

        PipelineResult result;
        {
            ScopedThreads one(1);
            result = runAttributionPipeline(config);
        }
        const auto &health = result.health;
        EXPECT_EQ(health.exitCode == 0, health.produced);
        if (config.faultPlan.active()) {
            ++faulted;
        } else {
            ++fault_free;
            EXPECT_TRUE(health.ok);
            for (const auto &stage : health.stages)
                EXPECT_NE(stage.status, StageStatus::Degraded)
                    << stage.name;
        }
        if (health.produced) {
            const double pool = config.poolGrams;
            EXPECT_LE(std::fabs(result.attribution.attributedGrams +
                                result.attribution.unattributedGrams -
                                pool),
                      kEfficiencyTolerance * pool);
            for (std::size_t i = 0; i < result.fairGrams.size(); ++i) {
                EXPECT_TRUE(std::isfinite(result.fairGrams[i]));
                EXPECT_TRUE(std::isfinite(result.rupGrams[i]));
            }
        }

        ScopedThreads four(4);
        const auto again = runAttributionPipeline(config);
        EXPECT_EQ(again.health.toJson(), health.toJson());
        EXPECT_TRUE(bitwiseEqual(again.attribution.intensity,
                                 result.attribution.intensity));
    }
    EXPECT_EQ(fault_free, 4u);
    EXPECT_EQ(faulted, 16u);
}

TEST(Pipeline, BoundaryNansReachTheInMemoryIngest)
{
    // The in-memory ingest applies `nan=P` like loadSeriesColumn does:
    // after drop/corrupt, before the bad-row policy.
    auto config = baseConfig();
    config.badRowPolicy = resilience::BadRowPolicy::Interpolate;
    config.faultPlan = resilience::FaultPlan::parse("seed=3,nan=0.5");
    std::size_t injected = 0;
    for (std::size_t i = 0; i < config.demandSeries.size(); ++i)
        injected += config.faultPlan.fires(
            resilience::FaultSite::NanBoundary, i);
    ASSERT_GT(injected, 0u);
    const auto result = runAttributionPipeline(config);
    EXPECT_EQ(result.ingest.nonFinite, injected);
    EXPECT_EQ(result.ingest.repaired, injected);
    EXPECT_FALSE(bitwiseEqual(result.demand, config.demandSeries));

    config.badRowPolicy = resilience::BadRowPolicy::Fail;
    EXPECT_THROW(runAttributionPipeline(config), resilience::IngestError);
}

TEST(Pipeline, HealthJsonIdenticalAcrossThreadCounts)
{
    auto config = baseConfig();
    config.badRowPolicy = resilience::BadRowPolicy::Interpolate;
    config.faultPlan =
        resilience::FaultPlan::parse("drop=0.05,corrupt=0.05,seed=3");
    std::string reports[3];
    const std::size_t threads[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
        ScopedThreads scoped(threads[i]);
        reports[i] = runAttributionPipeline(config).health.toJson();
    }
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
}

TEST(Health, JsonCarriesSchemaAndStages)
{
    const auto result = runAttributionPipeline(baseConfig());
    const std::string json = result.health.toJson();
    EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
    for (const char *name :
         {"ingest", "forecast", "shapley", "interference", "report"})
        EXPECT_NE(json.find(std::string("\"name\": \"") + name),
                  std::string::npos)
            << name;
    // No wall-clock anywhere: the same config yields the same bytes.
    EXPECT_EQ(json, runAttributionPipeline(baseConfig()).health.toJson());
}

TEST(Overload, EscalatesOnlyAfterConsecutiveHighPeriods)
{
    OverloadGovernor governor(OverloadGovernor::Config{});
    // 60% blocked > the 50% high watermark; the default dwell is 2
    // consecutive periods.
    EXPECT_EQ(governor.observe(10, 6, 0), OverloadLevel::Normal);
    EXPECT_EQ(governor.observe(10, 0, 6), OverloadLevel::ShedFree);
    EXPECT_EQ(governor.escalations(), 1u);
    // Two more high periods walk the second rung.
    EXPECT_EQ(governor.observe(10, 3, 4), OverloadLevel::ShedFree);
    EXPECT_EQ(governor.observe(10, 7, 0),
              OverloadLevel::Proportional);
    // Proportional is the top rung: further pressure holds it.
    EXPECT_EQ(governor.observe(10, 10, 0),
              OverloadLevel::Proportional);
    EXPECT_EQ(governor.observe(10, 10, 0),
              OverloadLevel::Proportional);
    EXPECT_EQ(governor.escalations(), 2u);
}

TEST(Overload, MidPressureResetsTheDwellStreaks)
{
    OverloadGovernor governor(OverloadGovernor::Config{});
    EXPECT_EQ(governor.observe(10, 6, 0), OverloadLevel::Normal);
    // 30% is between the watermarks: hold, reset both streaks.
    EXPECT_EQ(governor.observe(10, 3, 0), OverloadLevel::Normal);
    EXPECT_EQ(governor.observe(10, 6, 0), OverloadLevel::Normal);
    EXPECT_EQ(governor.observe(10, 6, 0), OverloadLevel::ShedFree);
}

TEST(Overload, RecoversAfterConsecutiveLowPeriods)
{
    OverloadGovernor::Config config;
    config.escalatePeriods = 1;
    config.recoverPeriods = 2;
    OverloadGovernor governor(config);
    EXPECT_EQ(governor.observe(10, 10, 0), OverloadLevel::ShedFree);
    EXPECT_EQ(governor.observe(10, 10, 0),
              OverloadLevel::Proportional);
    // Zero offered counts as a low-pressure period.
    EXPECT_EQ(governor.observe(0, 0, 0),
              OverloadLevel::Proportional);
    EXPECT_EQ(governor.observe(10, 1, 0), OverloadLevel::ShedFree);
    EXPECT_EQ(governor.observe(10, 0, 0), OverloadLevel::ShedFree);
    EXPECT_EQ(governor.observe(10, 0, 1), OverloadLevel::Normal);
    EXPECT_EQ(governor.recoveries(), 2u);
    // Normal is the bottom rung: quiet periods keep it there.
    EXPECT_EQ(governor.observe(10, 0, 0), OverloadLevel::Normal);
    EXPECT_EQ(governor.observe(10, 0, 0), OverloadLevel::Normal);
}

TEST(Overload, WatermarkComparisonsAreExact)
{
    OverloadGovernor::Config config;
    config.escalatePeriods = 1;
    OverloadGovernor governor(config);
    // Exactly 50% is NOT above the high watermark.
    EXPECT_EQ(governor.observe(10, 5, 0), OverloadLevel::Normal);
    // One more blocked batch is.
    EXPECT_EQ(governor.observe(10, 6, 0), OverloadLevel::ShedFree);
    // Exactly 10% counts as low pressure (<=).
    OverloadGovernor recover(config);
    EXPECT_EQ(recover.observe(10, 6, 0), OverloadLevel::ShedFree);
    for (int p = 0; p < 4; ++p)
        recover.observe(10, 1, 0);
    EXPECT_EQ(recover.level(), OverloadLevel::Normal);
}

TEST(Overload, RejectsInvertedWatermarks)
{
    OverloadGovernor::Config config;
    config.highWatermarkPercent = 5;
    config.lowWatermarkPercent = 50;
    EXPECT_THROW(OverloadGovernor{config}, std::invalid_argument);
}

TEST(Overload, LevelNamesAreStable)
{
    EXPECT_STREQ(overloadLevelName(OverloadLevel::Normal), "normal");
    EXPECT_STREQ(overloadLevelName(OverloadLevel::ShedFree),
                 "shed-free");
    EXPECT_STREQ(overloadLevelName(OverloadLevel::Proportional),
                 "proportional");
}

} // namespace
} // namespace fairco2::pipeline
