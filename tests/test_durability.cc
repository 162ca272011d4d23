/**
 * @file
 * Server-level durability tests: crash-identical replay recovery
 * (halt at any tick, recover, byte-identical published signal), the
 * recovery edge cases (empty log, only-sealed vs sealed + unsealed
 * tail, a recovered run crashing again), replay cross-check
 * divergence, the anti-entropy scrub (its detection, its read-once
 * loads, and windowed loads of served logs), shard-independent
 * replay, and the SIGTERM drain path. Process-kill (`kill -9`)
 * variants of the same contracts run through the CLI harnesses in
 * tools/ (wal_kill_sweep.sh).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/obs.hh"
#include "common/parallel.hh"
#include "durability/wal.hh"
#include "resilience/faultplan.hh"
#include "resilience/signals.hh"
#include "server/replica.hh"
#include "server/signalserver.hh"
#include "server/tenants.hh"

namespace fairco2::server
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch WAL directory. */
std::string
walDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "fairco2_dur_" +
        name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small serve shape that exercises deferrals, rejects, and
 *  several governor transitions. */
ServerConfig
durableConfig()
{
    ServerConfig config;
    config.tenants = 160;
    config.shards = 2;
    config.admissionRate = 48; // forces deferrals + sheds
    config.durationPeriods = 16;
    config.windowPeriods = 4;
    config.periodSamples = 6;
    config.maxBatchPeriods = 4; // watermark 5
    config.durability.walSegmentRecords = 6;
    config.durability.scrubPeriods = 5;
    return config;
}

ServerReport
runServer(const ServerConfig &config)
{
    SignalServer server(config);
    return server.run();
}

void
expectSameSignal(const ServerReport &got, const ServerReport &want)
{
    ASSERT_EQ(got.publishedIntensity.size(),
              want.publishedIntensity.size());
    ASSERT_FALSE(want.publishedIntensity.empty());
    EXPECT_EQ(0,
              std::memcmp(got.publishedIntensity.data(),
                          want.publishedIntensity.data(),
                          want.publishedIntensity.size() *
                              sizeof(double)));
    EXPECT_EQ(got.publishedPeriods, want.publishedPeriods);
    EXPECT_EQ(got.signalSignature(), want.signalSignature());
}

/** The population a server with @p config builds. */
TenantPopulation::Config
populationConfig(const ServerConfig &config)
{
    TenantPopulation::Config pc;
    pc.tenants = config.tenants;
    pc.zipfS = config.zipfS;
    pc.seed = config.seed;
    pc.periodSamples = config.periodSamples;
    pc.maxBatchPeriods = config.maxBatchPeriods;
    pc.meanDemandUnits = config.meanDemandUnits;
    return pc;
}

/** @p tenant's total units in @p period, as the scrub derives them. */
std::uint64_t
periodUnits(const TenantPopulation &population, std::uint64_t tenant,
            std::uint64_t period)
{
    std::uint64_t units = 0;
    for (std::uint64_t sample :
         population.materializePeriod(tenant, period))
        units += sample;
    return units;
}

// ---- WAL-on runs vs the plain server -------------------------------

TEST(Durability, WalLeavesTheSignalUntouched)
{
    ServerConfig plain = durableConfig();
    const ServerReport baseline = runServer(plain);

    ServerConfig logged = durableConfig();
    logged.durability.walDir = walDir("untouched");
    const ServerReport report = runServer(logged);

    expectSameSignal(report, baseline);
    // One record per arrival tick, drain tail included.
    const std::uint64_t horizon =
        logged.durationPeriods + logged.maxBatchPeriods + 1;
    EXPECT_EQ(report.walRecords, horizon);
    EXPECT_GT(report.walSegmentsSealed, 0u);
    EXPECT_GT(report.scrubRuns, 0u);
    EXPECT_EQ(report.scrubMismatches, 0u);
    // Clean shutdown seals the tail: nothing `.open` remains.
    const auto load = durability::loadWal(
        logged.durability.walDir, serverConfigHash(logged));
    EXPECT_EQ(load.records.size(), horizon);
    EXPECT_EQ(load.tailRecords, 0u);
}

TEST(Durability, CompressedWalReplaysIdentically)
{
    ServerConfig identity = durableConfig();
    identity.durability.walDir = walDir("codec_id");
    const ServerReport plain = runServer(identity);

    ServerConfig lz = durableConfig();
    lz.durability.walDir = walDir("codec_lz");
    lz.durability.walCodec = cache::Codec::Lz;
    const ServerReport compressed = runServer(lz);

    expectSameSignal(compressed, plain);
    EXPECT_EQ(compressed.walRawBytes, plain.walRawBytes);
    EXPECT_LT(compressed.walStoredBytes, plain.walStoredBytes);

    ServerConfig recover = durableConfig();
    recover.durability.walDir = lz.durability.walDir;
    recover.durability.recover = true;
    expectSameSignal(runServer(recover), plain);
}

// ---- Crash-identical replay recovery -------------------------------

TEST(Durability, HaltAtEveryTickRecoversByteIdentical)
{
    const ServerReport baseline = runServer(durableConfig());
    const std::uint64_t watermark = durableConfig().maxBatchPeriods +
        1;
    const std::uint64_t horizon =
        durableConfig().durationPeriods + watermark;

    // The in-process kill sweep: stop abruptly (no tail seal) after
    // every tick of the run, then recover from the log and demand a
    // byte-identical published signal. The process-kill flavor of
    // this sweep lives in tools/wal_kill_sweep.sh.
    for (std::uint64_t tick = 0; tick < 2 * horizon; ++tick) {
        ServerConfig crashed = durableConfig();
        crashed.durability.walDir =
            walDir("sweep_" + std::to_string(tick));
        crashed.durability.haltAtTick = tick;
        const ServerReport partial = runServer(crashed);
        ASSERT_LE(partial.publishedIntensity.size(),
                  baseline.publishedIntensity.size());

        ServerConfig recover = durableConfig();
        recover.durability.walDir = crashed.durability.walDir;
        recover.durability.recover = true;
        const ServerReport report = runServer(recover);
        ASSERT_TRUE(report.recovered);
        EXPECT_EQ(report.replayedRecords, tick / 2 + 1);
        expectSameSignal(report, baseline);
        fs::remove_all(crashed.durability.walDir);
    }
}

TEST(Durability, RecoveredRunHaltedAgainRecoversByteIdentical)
{
    // A log written partly by a recovered run (adopted tail, then
    // fresh appends) must recover like any other, under an armed
    // fault plan: halt, recover and halt again, recover to the end.
    ServerConfig base = durableConfig();
    base.faultPlan = resilience::FaultPlan::parse("cache-corrupt=0.2");
    const ServerReport baseline = runServer(base);

    ServerConfig crashed = base;
    crashed.durability.walDir = walDir("halt_twice");
    crashed.durability.haltAtTick = 7; // mid-segment: 4 records
    runServer(crashed);

    ServerConfig resumed = crashed;
    resumed.durability.recover = true;
    resumed.durability.haltAtTick = 21; // 11 records: one seal later
    const ServerReport partial = runServer(resumed);
    ASSERT_EQ(partial.replayedRecords, 4u);

    ServerConfig recover = crashed;
    recover.durability.recover = true;
    recover.durability.haltAtTick = kNoTick;
    const ServerReport report = runServer(recover);
    EXPECT_EQ(report.replayedRecords, 11u);
    expectSameSignal(report, baseline);
    EXPECT_EQ(report.engineRebuilds, baseline.engineRebuilds);
}

TEST(Durability, RecoverFromEmptyWalDirServesNormally)
{
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("empty");
    config.durability.recover = true;
    const ServerReport report = runServer(config);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.replayedRecords, 0u);
    expectSameSignal(report, runServer(durableConfig()));
}

TEST(Durability, RecoverOnlySealedSegments)
{
    // Halt exactly when a segment seals (6 records/segment; record p
    // appends at tick 2p, so tick 10 seals segment 1), then leave the
    // next tail absent, or as a kill before its first flush leaves
    // it: 0 bytes, or a header cut at 7 bytes. Each is a torn tail
    // with no records, and recovery starts from sealed history alone.
    const ServerReport baseline = runServer(durableConfig());
    for (const int tail_bytes : {-1, 0, 7}) {
        SCOPED_TRACE("tail bytes " + std::to_string(tail_bytes));
        ServerConfig crashed = durableConfig();
        crashed.durability.walDir =
            walDir("sealed_only_" + std::to_string(tail_bytes + 1));
        crashed.durability.haltAtTick = 11;
        runServer(crashed);
        const std::string sealed = durability::segmentPath(
            crashed.durability.walDir, 1, true);
        const std::string open_tail = durability::segmentPath(
            crashed.durability.walDir, 2, false);
        ASSERT_TRUE(fs::exists(sealed));
        fs::remove(open_tail);
        if (tail_bytes >= 0) {
            fs::copy_file(sealed, open_tail);
            fs::resize_file(open_tail,
                            static_cast<std::uintmax_t>(tail_bytes));
        }

        ServerConfig recover = durableConfig();
        recover.durability.walDir = crashed.durability.walDir;
        recover.durability.recover = true;
        const ServerReport report = runServer(recover);
        EXPECT_EQ(report.replayedRecords, 6u);
        EXPECT_EQ(report.droppedWalTail, tail_bytes >= 0);
        if (tail_bytes >= 0) {
            EXPECT_NE(report.walTailDiagnostic.find(open_tail),
                      std::string::npos)
                << report.walTailDiagnostic;
        }
        expectSameSignal(report, baseline);
    }
}

TEST(Durability, RecoverSealedPlusUnsealedTail)
{
    // Halt mid-segment: the log is sealed segments + an `.open` tail,
    // and recovery must consume both.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("sealed_tail");
    crashed.durability.haltAtTick = 17; // 9 records: 6 sealed + 3
    runServer(crashed);
    const auto load = durability::loadWal(
        crashed.durability.walDir, serverConfigHash(crashed));
    ASSERT_EQ(load.records.size(), 9u);
    ASSERT_EQ(load.tailRecords, 3u);

    ServerConfig recover = durableConfig();
    recover.durability.walDir = crashed.durability.walDir;
    recover.durability.recover = true;
    const ServerReport report = runServer(recover);
    EXPECT_EQ(report.replayedRecords, 9u);
    expectSameSignal(report, runServer(durableConfig()));
}

TEST(Durability, RecoveredLogReplaysAtDifferentShardCount)
{
    // serverConfigHash deliberately excludes shards: the signal is
    // shard-independent, so a log written at --shards 2 must replay
    // byte-identical at --shards 4.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("reshard");
    crashed.durability.haltAtTick = 13;
    runServer(crashed);

    ServerConfig recover = durableConfig();
    recover.shards = 4;
    recover.durability.walDir = crashed.durability.walDir;
    recover.durability.recover = true;
    expectSameSignal(runServer(recover), runServer(durableConfig()));
}

TEST(Durability, DirtyWalDirWithoutRecoverIsRefused)
{
    ServerConfig first = durableConfig();
    first.durability.walDir = walDir("dirty");
    runServer(first);

    ServerConfig again = durableConfig();
    again.durability.walDir = first.durability.walDir;
    EXPECT_THROW(runServer(again), durability::WalIntegrityError);
}

TEST(Durability, ReplayCrossCheckCatchesTamperedDecisions)
{
    // Rewrite the log with one record's token-bucket cross-check off
    // by one: every frame checksum is valid, so only the replay-time
    // state comparison can catch it — and it must.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("tamper");
    crashed.durability.haltAtTick = 15;
    runServer(crashed);
    const std::uint64_t hash = serverConfigHash(crashed);
    auto load = durability::loadWal(crashed.durability.walDir, hash);
    ASSERT_GT(load.records.size(), 3u);
    load.records[3].bucketTokens[0] += 1;

    const std::string rewritten = walDir("tamper_rewrite");
    {
        durability::WalWriter::Options options;
        options.dir = rewritten;
        options.configHash = hash;
        durability::WalWriter writer(options);
        for (const auto &record : load.records)
            writer.append(record);
    }
    ServerConfig recover = durableConfig();
    recover.durability.walDir = rewritten;
    recover.durability.recover = true;
    try {
        runServer(recover);
        FAIL() << "tampered wal replayed without divergence";
    } catch (const durability::WalIntegrityError &error) {
        EXPECT_NE(std::string(error.what()).find("diverged"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Durability, ConfigHashMismatchRefusesReplay)
{
    ServerConfig first = durableConfig();
    first.durability.walDir = walDir("confhash");
    runServer(first);

    ServerConfig other = durableConfig();
    other.seed = first.seed + 1; // signal-bearing field
    other.durability.walDir = first.durability.walDir;
    other.durability.recover = true;
    EXPECT_THROW(runServer(other), durability::WalIntegrityError);
}

// ---- Anti-entropy scrub --------------------------------------------

TEST(Durability, ScrubDigestsMatchTheLiveReplica)
{
    // Every scheduled scrub ran and none mismatched (a mismatch
    // throws, so completing the run is itself the assertion — the
    // counters prove the scrub actually executed).
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("scrub");
    config.durability.scrubPeriods = 3;
    const ServerReport report = runServer(config);
    const std::uint64_t watermark = config.maxBatchPeriods + 1;
    const std::uint64_t horizon = config.durationPeriods + watermark;
    EXPECT_EQ(report.scrubRuns, (horizon - 1) / 3);
    EXPECT_EQ(report.scrubMismatches, 0u);
}

TEST(Durability, ScrubComparisonCatchesOneUnitOfDrift)
{
    // Drive a replica live, then re-derive its window digests from the
    // records it emitted, as the scrub does. The honest derivation
    // matches; one extra unit for one in-window tenant of any shard
    // must move exactly that shard's digest and the fleet digest.
    ServerConfig config = durableConfig();
    config.shards = 4;
    const TenantPopulation population(populationConfig(config));
    Replica replica(config, population);
    std::vector<durability::WalTickRecord> records;
    for (std::uint64_t p = 0; p < config.durationPeriods; ++p) {
        records.push_back(replica.applyArrivalsLive(p));
        replica.applyClose(p);
    }

    const auto honest = [&population](std::uint64_t tenant,
                                      std::uint64_t period) {
        return periodUnits(population, tenant, period);
    };
    const std::uint64_t watermark = replica.watermark();
    const durability::WindowDigests live = replica.windowDigests();
    EXPECT_EQ(durability::deriveWindowDigests(
                  records, config.shards, config.windowPeriods,
                  watermark, honest),
              live);

    const durability::ScrubWindow window = durability::scrubWindow(
        records, config.windowPeriods, watermark);
    ASSERT_GT(window.periods, 0u);
    // Per shard, a tenant with an admitted batch covering the newest
    // in-window period.
    const std::uint64_t newest = window.first + window.periods - 1;
    std::vector<std::uint64_t> drifted(config.shards,
                                       ~std::uint64_t{0});
    for (const auto &record : records)
        for (const auto &batch : record.admitted)
            if (batch.period > newest &&
                batch.period - batch.coveredPeriods <= newest)
                drifted[batch.tenant % config.shards] = batch.tenant;
    for (std::size_t s = 0; s < config.shards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        ASSERT_NE(drifted[s], ~std::uint64_t{0});
        const durability::WindowDigests derived =
            durability::deriveWindowDigests(
                records, config.shards, config.windowPeriods,
                watermark,
                [&](std::uint64_t tenant, std::uint64_t period) {
                    return honest(tenant, period) +
                        (tenant == drifted[s] ? 1 : 0);
                });
        EXPECT_FALSE(derived == live);
        EXPECT_NE(derived.fleet, live.fleet);
        for (std::size_t other = 0; other < config.shards; ++other)
            if (other == s)
                EXPECT_NE(derived.shard[other], live.shard[other]);
            else
                EXPECT_EQ(derived.shard[other], live.shard[other])
                    << other;
    }
}

TEST(Durability, ScrubDerivesFromTheRecordsThatReachTheWindow)
{
    // A batch covers only periods before its own, and a deferred
    // retry keeps its first period, so records up to the window's
    // first period cannot reach the window: deriving from the suffix
    // after them must give the full log's digests, whatever the
    // thread count, and the derivation must not read the prefix.
    const ServerConfig config = durableConfig();
    const TenantPopulation population(populationConfig(config));
    Replica replica(config, population);
    std::vector<durability::WalTickRecord> records;
    for (std::uint64_t p = 0; p < config.durationPeriods; ++p) {
        records.push_back(replica.applyArrivalsLive(p));
        replica.applyClose(p);
    }
    std::uint64_t retried = 0;
    for (const auto &record : records)
        for (const auto &batch : record.admitted)
            retried += batch.deferred;
    ASSERT_GT(retried, 0u) << "the log must hold admitted retries";

    const auto units = [&population](std::uint64_t tenant,
                                     std::uint64_t period) {
        return periodUnits(population, tenant, period);
    };
    const std::uint64_t watermark = replica.watermark();
    const durability::ScrubWindow window = durability::scrubWindow(
        records, config.windowPeriods, watermark);
    ASSERT_GT(window.first, 0u);
    std::size_t cut = 0;
    while (records[cut].period <= window.first)
        ++cut;
    const std::vector<durability::WalTickRecord> suffix(
        records.begin() + static_cast<std::ptrdiff_t>(cut),
        records.end());
    // Prefix records rewritten to claim every in-window period: read,
    // they would move every digest.
    std::vector<durability::WalTickRecord> poisoned = records;
    for (std::size_t i = 0; i < cut; ++i)
        for (auto &batch : poisoned[i].admitted) {
            batch.period = window.first + window.periods;
            batch.coveredPeriods =
                static_cast<std::uint32_t>(window.periods);
        }

    const std::size_t saved = parallel::threadCount();
    for (std::size_t threads : {1u, 2u, 8u}) {
        parallel::setThreadCount(threads);
        const durability::WindowDigests full =
            durability::deriveWindowDigests(records, config.shards,
                                            config.windowPeriods,
                                            watermark, units);
        EXPECT_EQ(full, replica.windowDigests()) << threads;
        EXPECT_EQ(durability::deriveWindowDigests(
                      suffix, config.shards, config.windowPeriods,
                      watermark, units),
                  full)
            << threads;
        EXPECT_EQ(durability::deriveWindowDigests(
                      poisoned, config.shards, config.windowPeriods,
                      watermark, units),
                  full)
            << threads;
    }
    parallel::setThreadCount(saved);
}

TEST(Durability, RecoveryScrubsReuseTheLoadedLog)
{
#if defined(FAIRCO2_OBS_OFF)
    GTEST_SKIP() << "counts wal loads through an obs counter";
#else
    // 32 arrival periods at watermark 9 log 41 ticks; scrubs every 8
    // periods land at 8, 16, 24, 32 and 40, all inside the replay, so
    // recovery reads the log once: the scrubs derive from the records
    // recovery already loaded and checksummed.
    ServerConfig config = durableConfig();
    config.durationPeriods = 32;
    config.maxBatchPeriods = 8;
    config.durability.scrubPeriods = 8;
    config.durability.walDir = walDir("scrub_loads");
    const ServerReport live = runServer(config);
    ASSERT_EQ(live.walRecords, 41u);

    config.durability.recover = true;
    obs::resetForTest();
    obs::setEnabled(true);
    const ServerReport recovered = runServer(config);
    const std::uint64_t loads =
        obs::counter("durability.wal.loads").value();
    obs::resetForTest();
    EXPECT_EQ(recovered.replayedRecords, 41u);
    EXPECT_EQ(recovered.scrubRuns, 5u);
    EXPECT_EQ(recovered.scrubMismatches, 0u);
    EXPECT_EQ(loads, 1u);
    expectSameSignal(recovered, live);
#endif
}

TEST(Durability, LiveScrubsReadEachFrameOnceAndDeriveEachPeriodOnce)
{
#if defined(FAIRCO2_OBS_OFF)
    GTEST_SKIP() << "counts wal reads through obs counters";
#else
    // 32 arrival periods at watermark 9 log 41 ticks; scrubs every 8
    // periods land at 8, 16, 24, 32 and 40. Each reads only the frames
    // committed since the previous one, so the run reads each of its
    // 41 frames once; and with the cadence equal to the window, the
    // windows [0,0), [0,8), ..., [24,32) derive each closed period
    // once.
    ServerConfig config = durableConfig();
    config.durationPeriods = 32;
    config.windowPeriods = 8;
    config.maxBatchPeriods = 8;
    config.durability.scrubPeriods = 8;
    config.durability.walDir = walDir("scrub_reads");
    obs::resetForTest();
    obs::setEnabled(true);
    const ServerReport live = runServer(config);
    const std::uint64_t loads =
        obs::counter("durability.wal.loads").value();
    const std::uint64_t frames =
        obs::counter("durability.wal.frames_read").value();
    const std::uint64_t pairs =
        obs::counter("durability.scrub.pairs_derived").value();
    obs::resetForTest();
    ASSERT_EQ(live.walRecords, 41u);
    EXPECT_EQ(live.scrubRuns, 5u);
    EXPECT_EQ(loads, 5u);
    EXPECT_EQ(frames, 41u);

    // Every (admitted batch, covered period) pair of the 32 closed
    // periods, counted from the log.
    std::uint64_t closed_pairs = 0;
    const auto log = durability::loadWal(config.durability.walDir,
                                         serverConfigHash(config));
    for (const auto &record : log.records)
        for (const auto &batch : record.admitted)
            for (std::uint32_t p = 0; p < batch.coveredPeriods; ++p)
                closed_pairs +=
                    batch.period - batch.coveredPeriods + p < 32;
    EXPECT_GT(closed_pairs, 0u);
    EXPECT_EQ(pairs, closed_pairs);
#endif
}

TEST(Durability, ScrubsPassAtAnyThreadCount)
{
    // A scrub after every period: the wal-derived digests must equal
    // the live replica's, which do not depend on the thread count, at
    // 1, 2 and 8 threads alike (a mismatch throws).
    ServerConfig config = durableConfig();
    config.shards = 3;
    config.durability.scrubPeriods = 1;
    const std::uint64_t horizon =
        config.durationPeriods + config.maxBatchPeriods + 1;
    const ServerReport baseline = runServer(durableConfig());
    const std::size_t saved = parallel::threadCount();
    for (std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        parallel::setThreadCount(threads);
        config.durability.walDir =
            walDir("threads_" + std::to_string(threads));
        const ServerReport report = runServer(config);
        EXPECT_EQ(report.scrubRuns, horizon - 1);
        EXPECT_EQ(report.scrubMismatches, 0u);
        expectSameSignal(report, baseline);
    }
    parallel::setThreadCount(saved);
}

/** Every windowed load of @p dir is the full load's suffix, and a
 *  load from past the end throws. */
void
expectWindowedLoadsMatch(const std::string &dir, std::uint64_t hash)
{
    const auto full = durability::loadWal(dir, hash);
    const std::size_t n = full.records.size();
    ASSERT_GT(n, 0u);
    for (std::size_t from = 0; from <= n; ++from) {
        const auto part = durability::loadWal(dir, hash, from);
        ASSERT_EQ(part.records.size(), n - from) << "from " << from;
        for (std::size_t i = 0; i < part.records.size(); ++i)
            EXPECT_EQ(part.records[i], full.records[from + i])
                << "from " << from << ", record " << from + i;
    }
    EXPECT_THROW(durability::loadWal(dir, hash, n + 1),
                 durability::WalIntegrityError);
}

TEST(Durability, WindowedLoadsOfAServedLogAreItsSuffix)
{
    // A log shaped by every path that writes one: a halt leaving an
    // `.open` tail, a SIGTERM drain sealing the adopted tail short, a
    // recovery adopting and continuing a tail, and a clean finish.
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("windowed");
    const std::uint64_t hash = serverConfigHash(config);
    const std::string &dir = config.durability.walDir;

    ServerConfig crashed = config;
    crashed.durability.haltAtTick = 7; // 4 records in `.open`
    runServer(crashed);
    expectWindowedLoadsMatch(dir, hash);

    resilience::resetShutdownForTest();
    resilience::installShutdownHandler();
    std::raise(SIGTERM);
    ServerConfig drained = config;
    drained.durability.recover = true;
    EXPECT_TRUE(runServer(drained).interrupted);
    resilience::resetShutdownForTest();
    ASSERT_TRUE(fs::exists(durability::segmentPath(dir, 1, true)));
    EXPECT_EQ(durability::loadWal(dir, hash).records.size(), 4u);

    ServerConfig resumed = config;
    resumed.durability.recover = true;
    resumed.durability.haltAtTick = 25; // 13 records: 4 + 6 + 3 open
    runServer(resumed);
    EXPECT_EQ(durability::loadWal(dir, hash).tailRecords, 3u);
    expectWindowedLoadsMatch(dir, hash);

    ServerConfig finished = config;
    finished.durability.recover = true;
    expectSameSignal(runServer(finished), runServer(durableConfig()));
    expectWindowedLoadsMatch(dir, hash);
}

TEST(Durability, ScrubDisabledByZeroPeriod)
{
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("noscrub");
    config.durability.scrubPeriods = 0;
    EXPECT_EQ(runServer(config).scrubRuns, 0u);
}

TEST(Durability, ScrubCatchesAReplayedBatchCoveringClosedPeriods)
{
    // A checksum-valid log whose replay and scrub disagree: one batch
    // logged at period 9 claims to cover periods [1, 9). The replay
    // cross-checks (totals, bucket tokens, governor level) pass, and
    // the replica materializes the already-closed periods 1-3 into
    // accumulators that never close, while the scrub at period 10
    // derives its window [2, 6) from the log and counts them. The
    // scrub must reject the window.
    ServerConfig config = durableConfig();
    config.admissionRate = 0; // every admitted batch is a fresh offer
    config.durability.walDir = walDir("scrub_reject_source");
    runServer(config);
    auto log = durability::loadWal(config.durability.walDir,
                                   serverConfigHash(config));
    ASSERT_GT(log.records.size(), 10u);
    durability::WalTickRecord &record = log.records[9];
    ASSERT_EQ(record.period, 9u);
    ASSERT_FALSE(record.admitted.empty());
    ASSERT_EQ(record.admitted.front().period, 9u);
    record.admitted.front().coveredPeriods = 8;

    ServerConfig recovering = config;
    recovering.durability.walDir = walDir("scrub_reject");
    recovering.durability.recover = true;
    {
        durability::WalWriter::Options options;
        options.dir = recovering.durability.walDir;
        options.configHash = serverConfigHash(recovering);
        options.segmentRecords =
            recovering.durability.walSegmentRecords;
        durability::WalWriter writer(options);
        for (const durability::WalTickRecord &logged : log.records)
            writer.append(logged);
        writer.seal();
    }

    SignalServer server(recovering);
    try {
        server.run();
        FAIL() << "the scrub passed a window the replay dropped units of";
    } catch (const durability::WalIntegrityError &error) {
        EXPECT_NE(std::string(error.what()).find(
                      "scrub mismatch at period 10"),
                  std::string::npos)
            << error.what();
    }
}

// ---- Signal drain (SIGTERM/SIGINT) ---------------------------------

TEST(Durability, SigtermDrainsSealsAndRecovers)
{
    resilience::resetShutdownForTest();
    resilience::installShutdownHandler();
    std::raise(SIGTERM);

    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("sigterm");
    const ServerReport report = runServer(config);
    resilience::resetShutdownForTest();

    EXPECT_TRUE(report.interrupted);
    // The drain sealed the tail: no `.open` segment survives ...
    const auto load = durability::loadWal(
        config.durability.walDir, serverConfigHash(config));
    EXPECT_EQ(load.tailRecords, 0u);
    // ... and the sealed log recovers into the full baseline run.
    ServerConfig recover = durableConfig();
    recover.durability.walDir = config.durability.walDir;
    recover.durability.recover = true;
    expectSameSignal(runServer(recover), runServer(durableConfig()));
}

// ---- Config validation ---------------------------------------------

TEST(Durability, DurabilityFlagsRequireAWalDir)
{
    ServerConfig config = durableConfig();
    config.durability.recover = true;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);

    config = durableConfig();
    config.durability.killTorn = true;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);

    config = durableConfig();
    config.durability.walDir = walDir("validate");
    config.durability.walSegmentRecords = 0;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);
}

TEST(Durability, ConfigHashIgnoresDeploymentShape)
{
    const ServerConfig base = durableConfig();
    const std::uint64_t hash = serverConfigHash(base);

    ServerConfig other = base;
    other.shards = 8;
    other.cacheCapacity = 16;
    EXPECT_EQ(serverConfigHash(other), hash);

    other = base;
    other.admissionRate += 1;
    EXPECT_NE(serverConfigHash(other), hash);
    other = base;
    other.seed += 1;
    EXPECT_NE(serverConfigHash(other), hash);
    other = base;
    other.faultPlan =
        resilience::FaultPlan::parse("cache-corrupt=0.5");
    EXPECT_NE(serverConfigHash(other), hash);
}

} // namespace
} // namespace fairco2::server
