/**
 * @file
 * Tests for the graceful-shutdown contract: a delivered SIGINT or
 * SIGTERM sets the flag without killing the process, the
 * checkpointed trial loop stops at the next chunk boundary with the
 * finished chunks flushed, a resumed run completes bit-identically,
 * and an interrupted pipeline run reports `interrupted` with the
 * 130 exit code.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "pipeline/runner.hh"
#include "resilience/checkpoint.hh"
#include "resilience/signals.hh"
#include "trace/timeseries.hh"

namespace fairco2::resilience
{
namespace
{

/** Every test leaves the flag clear for the next one. */
class SignalsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        installShutdownHandler();
        resetShutdownForTest();
    }
    void TearDown() override { resetShutdownForTest(); }
};

struct TrialRecord
{
    std::uint64_t trial = 0;
    double value = 0.0;
};

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "fairco2_" + name + ".ckpt";
}

TEST_F(SignalsTest, HandlerRecordsSigtermWithoutDying)
{
    EXPECT_FALSE(shutdownRequested());
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGTERM);
    resetShutdownForTest();
    EXPECT_FALSE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), 0);
}

TEST_F(SignalsTest, HandlerRecordsSigint)
{
    ASSERT_EQ(std::raise(SIGINT), 0);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGINT);
}

TEST_F(SignalsTest, CheckpointLoopStopsAtChunkBoundary)
{
    // One worker makes the stop point exact: chunk 1 is mid-flight
    // when the signal lands, so it finishes and commits, and chunk 2
    // never starts.
    const std::size_t saved_threads = parallel::threadCount();
    parallel::setThreadCount(1);

    const Rng base(17);
    const std::uint64_t trials = 40;
    CheckpointOptions options;
    options.checkpointPath = tempPath("signal_stop");
    options.chunkTrials = 10;

    std::vector<TrialRecord> records;
    const auto outcome = runCheckpointedTrials<TrialRecord>(
        options, base, 0x5161, trials, records, [&](std::uint64_t t) {
            if (t == 10)
                std::raise(SIGTERM);
            Rng rng = base.fork(t);
            return TrialRecord{t, rng.uniform(0.0, 1.0)};
        });
    parallel::setThreadCount(saved_threads);
    EXPECT_FALSE(outcome.complete);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_EQ(outcome.computedChunks, 2u); // chunks 0 and 1 committed

    // Resume without the signal: bit-identical to an uninterrupted
    // run.
    resetShutdownForTest();
    CheckpointOptions resume = options;
    resume.resumePath = options.checkpointPath;
    std::vector<TrialRecord> resumed;
    const auto second = runCheckpointedTrials<TrialRecord>(
        resume, base, 0x5161, trials, resumed, [&](std::uint64_t t) {
            Rng rng = base.fork(t);
            return TrialRecord{t, rng.uniform(0.0, 1.0)};
        });
    EXPECT_TRUE(second.complete);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.resumedChunks, outcome.computedChunks);

    std::vector<TrialRecord> plain;
    runCheckpointedTrials<TrialRecord>(
        CheckpointOptions{}, base, 0x5161, trials, plain,
        [&](std::uint64_t t) {
            Rng rng = base.fork(t);
            return TrialRecord{t, rng.uniform(0.0, 1.0)};
        });
    ASSERT_EQ(resumed.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(resumed[i].trial, plain[i].trial);
        EXPECT_EQ(resumed[i].value, plain[i].value);
    }
    std::remove(options.checkpointPath.c_str());
}

TEST_F(SignalsTest, StopAfterChunksSimulatesAKill)
{
    const Rng base(23);
    CheckpointOptions options;
    options.checkpointPath = tempPath("stop_after");
    options.chunkTrials = 5;
    options.stopAfterChunks = 2;
    std::vector<TrialRecord> records;
    const auto outcome = runCheckpointedTrials<TrialRecord>(
        options, base, 0xABCD, 30, records, [&](std::uint64_t t) {
            return TrialRecord{t, double(t)};
        });
    EXPECT_FALSE(outcome.complete);
    EXPECT_FALSE(outcome.interrupted); // a test hook, not a signal
    EXPECT_EQ(outcome.computedChunks, 2u);
    std::remove(options.checkpointPath.c_str());
}

TEST_F(SignalsTest, InterruptedPipelineReports130)
{
    std::vector<double> values(96, 50.0);
    pipeline::PipelineConfig config;
    config.demandSeries = trace::TimeSeries(values, 300.0);
    config.poolGrams = 1000.0;
    config.splits = {4, 4};
    config.horizonSteps = 0;
    // The flag is already set when the run starts: the check before
    // the first stage observes it and the run closes out as
    // interrupted, not as a failure.
    ASSERT_EQ(std::raise(SIGTERM), 0);
    const auto result = pipeline::runAttributionPipeline(config);
    EXPECT_TRUE(result.health.interrupted);
    EXPECT_FALSE(result.health.produced);
    EXPECT_EQ(result.health.exitCode, kInterruptExitCode);
    const std::string json = result.health.toJson();
    EXPECT_NE(json.find("\"interrupted\": true"), std::string::npos);
    EXPECT_NE(json.find("\"exit_code\": 130"), std::string::npos);
}

} // namespace
} // namespace fairco2::resilience
