/**
 * @file
 * Tests for checkpoint/resume: a run killed at *every possible chunk
 * boundary* and resumed must be bit-identical to the uninterrupted
 * run, at one thread and at eight; unusable checkpoint files must be
 * rejected loudly, never silently degraded.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "montecarlo/demandmc.hh"
#include "resilience/checkpoint.hh"

namespace fairco2::resilience
{
namespace
{

struct TrialRecord
{
    std::uint64_t trial = 0;
    double value = 0.0;
};

/** Pure trial: everything derives from base.fork(t). */
TrialRecord
makeTrial(const Rng &base, std::uint64_t t)
{
    Rng rng = base.fork(t);
    return {t, rng.uniform(0.0, 1.0) + static_cast<double>(t)};
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "fairco2_" + name + ".ckpt";
}

std::vector<TrialRecord>
uninterruptedRun(std::uint64_t trials)
{
    const Rng base(99);
    std::vector<TrialRecord> records;
    runCheckpointedTrials<TrialRecord>(
        CheckpointOptions{}, base, 0x1234, trials, records,
        [&](std::uint64_t t) { return makeTrial(base, t); });
    return records;
}

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

TEST(Checkpoint, PlainRunFillsEveryTrial)
{
    const auto records = uninterruptedRun(23);
    ASSERT_EQ(records.size(), 23u);
    for (std::uint64_t t = 0; t < records.size(); ++t)
        EXPECT_EQ(records[t].trial, t);
}

TEST(Checkpoint, KilledAtEveryChunkBoundaryResumesBitIdentical)
{
    constexpr std::uint64_t kTrials = 23;
    constexpr std::uint64_t kChunk = 4; // 6 chunks, last one short
    const auto expected = uninterruptedRun(kTrials);
    const std::string path = tempPath("kill_sweep");

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScopedThreads scope(threads);
        const std::uint64_t chunks = (kTrials + kChunk - 1) / kChunk;
        for (std::uint64_t stop = 0; stop <= chunks; ++stop) {
            std::remove(path.c_str());
            const Rng base(99);

            // Phase 1: "killed" after `stop` chunks.
            CheckpointOptions partial;
            partial.checkpointPath = path;
            partial.chunkTrials = kChunk;
            partial.stopAfterChunks = stop == 0 ? chunks + 1 : stop;
            std::vector<TrialRecord> records;
            const auto first = runCheckpointedTrials<TrialRecord>(
                stop == 0 ? CheckpointOptions{} : partial, base,
                0x1234, kTrials, records,
                [&](std::uint64_t t) { return makeTrial(base, t); });
            if (stop == 0) {
                // Degenerate sweep point: no checkpointing at all.
                EXPECT_TRUE(first.complete);
                ASSERT_EQ(records.size(), expected.size());
                EXPECT_EQ(std::memcmp(records.data(), expected.data(),
                                      records.size() *
                                          sizeof(TrialRecord)),
                          0);
                continue;
            }
            EXPECT_EQ(first.computedChunks, std::min(stop, chunks));
            EXPECT_EQ(first.complete, stop >= chunks);

            // Phase 2: resume and finish.
            CheckpointOptions resume;
            resume.checkpointPath = path;
            resume.resumePath = path;
            resume.chunkTrials = kChunk;
            std::vector<TrialRecord> resumed;
            const auto second = runCheckpointedTrials<TrialRecord>(
                resume, base, 0x1234, kTrials, resumed,
                [&](std::uint64_t t) { return makeTrial(base, t); });
            EXPECT_TRUE(second.complete);
            EXPECT_EQ(second.resumedChunks, std::min(stop, chunks));
            ASSERT_EQ(resumed.size(), expected.size());
            EXPECT_EQ(std::memcmp(resumed.data(), expected.data(),
                                  resumed.size() *
                                      sizeof(TrialRecord)),
                      0)
                << "threads=" << threads << " stop=" << stop;
        }
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, FinalFileIsByteIdenticalAcrossThreadCounts)
{
    constexpr std::uint64_t kTrials = 17;
    const std::string path_a = tempPath("threads1");
    const std::string path_b = tempPath("threads8");

    const auto run = [&](std::size_t threads,
                         const std::string &path) {
        ScopedThreads scope(threads);
        const Rng base(5);
        CheckpointOptions options;
        options.checkpointPath = path;
        options.chunkTrials = 3;
        std::vector<TrialRecord> records;
        runCheckpointedTrials<TrialRecord>(
            options, base, 0xbeef, kTrials, records,
            [&](std::uint64_t t) { return makeTrial(base, t); });
    };
    run(1, path_a);
    run(8, path_b);

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    const auto bytes_a = slurp(path_a);
    const auto bytes_b = slurp(path_b);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

/** Write a partial checkpoint to tamper with. */
std::string
freshCheckpoint(const std::string &name)
{
    const std::string path = tempPath(name);
    std::remove(path.c_str());
    const Rng base(99);
    CheckpointOptions options;
    options.checkpointPath = path;
    options.chunkTrials = 4;
    options.stopAfterChunks = 2;
    std::vector<TrialRecord> records;
    runCheckpointedTrials<TrialRecord>(
        options, base, 0x1234, std::uint64_t{23}, records,
        [&](std::uint64_t t) { return makeTrial(base, t); });
    return path;
}

void
expectResumeRejected(const std::string &path,
                     const std::string &message_fragment,
                     std::uint64_t seed = 99,
                     std::uint64_t config_hash = 0x1234)
{
    const Rng base(seed);
    CheckpointOptions options;
    options.resumePath = path;
    options.chunkTrials = 4;
    std::vector<TrialRecord> records;
    try {
        runCheckpointedTrials<TrialRecord>(
            options, base, config_hash, std::uint64_t{23}, records,
            [&](std::uint64_t t) { return makeTrial(base, t); });
        FAIL() << "resume from " << path << " was not rejected";
    } catch (const CheckpointError &error) {
        EXPECT_NE(std::string(error.what()).find(message_fragment),
                  std::string::npos)
            << "actual message: " << error.what();
    }
}

TEST(Checkpoint, TruncatedFileIsRejected)
{
    const std::string path = freshCheckpoint("truncated");
    {
        std::ifstream in(path, std::ios::binary);
        std::string bytes(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>{});
        bytes.resize(bytes.size() / 2);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    expectResumeRejected(path, "truncated checkpoint");
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedPayloadIsRejected)
{
    const std::string path = freshCheckpoint("corrupt");
    {
        std::fstream io(path, std::ios::binary | std::ios::in |
                            std::ios::out);
        io.seekp(64); // somewhere in the payload
        char byte = 0;
        io.read(&byte, 1);
        io.seekp(64);
        byte = static_cast<char>(byte ^ 0x5a);
        io.write(&byte, 1);
    }
    expectResumeRejected(path, "checksum mismatch");
    std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchIsRejected)
{
    const std::string path = freshCheckpoint("version");
    {
        // Patch the version field (offset 4) and recompute the
        // trailing checksum so only the version differs.
        std::ifstream in(path, std::ios::binary);
        std::string bytes(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>{});
        in.close();
        const std::uint32_t bogus = 999;
        std::memcpy(bytes.data() + 4, &bogus, sizeof(bogus));
        const std::uint64_t checksum =
            fnv1a64(bytes.data(), bytes.size() - 8);
        std::memcpy(bytes.data() + bytes.size() - 8, &checksum,
                    sizeof(checksum));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    expectResumeRejected(path, "unsupported checkpoint version");
    std::remove(path.c_str());
}

TEST(Checkpoint, NotACheckpointFileIsRejected)
{
    const std::string path = tempPath("garbage");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a checkpoint, it is a haiku\n"
               "written to confuse\n"
               "the resume machinery\n";
    }
    expectResumeRejected(path, "not a checkpoint file");
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsRejected)
{
    expectResumeRejected(tempPath("never_written"),
                         "cannot read checkpoint file");
}

TEST(Checkpoint, WrongSeedIsRejected)
{
    const std::string path = freshCheckpoint("wrong_seed");
    expectResumeRejected(path, "seed fingerprint", /*seed=*/100);
    std::remove(path.c_str());
}

TEST(Checkpoint, WrongConfigIsRejected)
{
    const std::string path = freshCheckpoint("wrong_config");
    expectResumeRejected(path, "configuration", /*seed=*/99,
                         /*config_hash=*/0x9999);
    std::remove(path.c_str());
}

TEST(Checkpoint, DemandMcResumeMatchesUninterrupted)
{
    montecarlo::DemandMcConfig config;
    config.trials = 60;
    config.maxWorkloads = 10; // must cover maxTimeSlices (9)

    const auto baseline = [&] {
        Rng rng(7);
        return montecarlo::runDemandMonteCarlo(config, rng);
    }();

    const std::string path = tempPath("demand_mc");
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ScopedThreads scope(threads);
        std::remove(path.c_str());

        CheckpointOptions partial;
        partial.checkpointPath = path;
        partial.chunkTrials = 16;
        partial.stopAfterChunks = 2;
        {
            Rng rng(7);
            montecarlo::runDemandMonteCarlo(config, rng, partial);
        }

        CheckpointOptions resume;
        resume.resumePath = path;
        resume.chunkTrials = 16;
        Rng rng(7);
        CheckpointRunResult outcome;
        const auto resumed = montecarlo::runDemandMonteCarlo(
            config, rng, resume, &outcome);
        EXPECT_TRUE(outcome.complete);
        EXPECT_EQ(outcome.resumedChunks, 2u);
        ASSERT_EQ(resumed.size(), baseline.size());
        EXPECT_EQ(std::memcmp(resumed.data(), baseline.data(),
                              baseline.size() *
                                  sizeof(baseline[0])),
                  0)
            << "threads=" << threads;
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedChunkSizeIsRejected)
{
    const std::string path = freshCheckpoint("chunk_size");
    const Rng base(99);
    CheckpointOptions options;
    options.resumePath = path;
    options.chunkTrials = 5; // file was written with 4
    std::vector<TrialRecord> records;
    EXPECT_THROW(runCheckpointedTrials<TrialRecord>(
                     options, base, 0x1234, std::uint64_t{23},
                     records,
                     [&](std::uint64_t t) {
                         return makeTrial(base, t);
                     }),
                 CheckpointError);
    std::remove(path.c_str());
}

/**
 * Write a checkpoint whose header declares @p trials, @p chunk_trials
 * and @p record_bytes, with a one-byte chunk bitmap, @p stored
 * payload bytes and a valid checksum: only the sizes are hostile.
 * Version 2 files declare the lz codec.
 */
std::string
forgedCheckpoint(const std::string &name, std::uint32_t version,
                 std::uint64_t trials, std::uint64_t chunk_trials,
                 std::uint64_t record_bytes,
                 const std::string &stored)
{
    std::string bytes = "FC2K";
    const auto put = [&bytes](const auto &value) {
        bytes.append(reinterpret_cast<const char *>(&value),
                     sizeof(value));
    };
    put(version);
    if (version == 2)
        put(std::uint32_t{1});
    put(std::uint64_t{0}); // fingerprint
    put(std::uint64_t{0}); // config hash
    put(trials);
    put(chunk_trials);
    put(record_bytes);
    if (version == 2)
        put(std::uint64_t{stored.size()});
    bytes.push_back('\x01');
    bytes += stored;
    put(fnv1a64(bytes.data(), bytes.size()));
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

TEST(Checkpoint, HugeDeclaredPayloadIsRejectedBeforeAllocating)
{
    // 2^40 trials of 2^20 bytes claim a 2^60-byte payload that 16
    // stored bytes cannot decode to: a header error, not bad_alloc.
    const std::string path = forgedCheckpoint(
        "huge_payload", 2, std::uint64_t{1} << 40,
        std::uint64_t{1} << 40, std::uint64_t{1} << 20,
        std::string(16, '\0'));
    EXPECT_THROW(detail::readCheckpointFile(path), CheckpointError);
    std::remove(path.c_str());
}

TEST(Checkpoint, WrappingPayloadSizeIsRejected)
{
    // 2^63 trials of 2 bytes wrap trials * recordBytes to 0, which
    // would match an empty payload and decode "successfully".
    const std::string path = forgedCheckpoint(
        "wrapping_payload", 1, std::uint64_t{1} << 63,
        std::uint64_t{1} << 63, 2, "");
    EXPECT_THROW(detail::readCheckpointFile(path), CheckpointError);
    std::remove(path.c_str());
}

} // namespace
} // namespace fairco2::resilience
