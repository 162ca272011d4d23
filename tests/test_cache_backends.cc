/**
 * @file
 * Codec and integrity suite for the payload codecs (src/cache/) and
 * the memo ring's checksums. The contract under test: a stored
 * payload is either reproduced exactly or rejected. The lz codec
 * round-trips bit-identically and its strict decoder rejects
 * malformed blocks, a killed-and-resumed checkpointed run reproduces
 * the uninterrupted file byte for byte across codecs, and a
 * corrupted cache entry or stored block raises CacheIntegrityError /
 * CheckpointError — never a silently wrong value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cache/compr_api.hh"
#include "common/rng.hh"
#include "resilience/checkpoint.hh"
#include "shapley/incremental.hh"

namespace fairco2
{
namespace
{

std::vector<double>
syntheticDemand(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> values(n);
    for (auto &v : values)
        v = rng.uniform(0.0, 100.0);
    return values;
}

// ---------------------------------------------------------------
// Compression properties
// ---------------------------------------------------------------

/** Record-shaped test vector: a words section of small integers,
 *  then a doubles section with occasional exact duplicates. */
std::vector<std::uint8_t>
syntheticBlob(Rng &rng, std::size_t words, std::size_t doubles)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve((words + doubles) * 8);
    const auto pushWord = [&](std::uint64_t w) {
        for (int b = 0; b < 8; ++b)
            bytes.push_back(
                static_cast<std::uint8_t>(w >> (8 * b)));
    };
    for (std::size_t i = 0; i < words; ++i)
        pushWord(rng.next() % 4096);
    double last = 0.0;
    for (std::size_t i = 0; i < doubles; ++i) {
        const double value = (rng.next() % 8 == 0)
            ? last
            : rng.uniform(0.0, 1.0e6);
        last = value;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, 8);
        pushWord(bits);
    }
    return bytes;
}

std::uint64_t
rawChecksum(const std::vector<std::uint8_t> &bytes)
{
    return resilience::fnv1a64(bytes.data(), bytes.size());
}

TEST(LzCodec, RandomTablesRoundTripBitIdentical)
{
    Rng rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t words = rng.next() % 64;
        const std::size_t doubles = rng.next() % 64;
        const auto raw = syntheticBlob(rng, words, doubles);
        const auto stored =
            cache::LzCompr::compress(raw.data(), raw.size());
        std::vector<std::uint8_t> back(raw.size());
        cache::LzCompr::decompress(stored.data(), stored.size(),
                                   back.data(), back.size());
        ASSERT_EQ(back, raw) << "trial " << trial;
    }
}

TEST(LzCodec, EdgeSizesRoundTrip)
{
    Rng rng(77);
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{4096}}) {
        std::vector<std::uint8_t> raw(size);
        for (auto &b : raw)
            b = static_cast<std::uint8_t>(rng.next());
        const auto stored =
            cache::LzCompr::compress(raw.data(), raw.size());
        std::vector<std::uint8_t> back(size);
        cache::LzCompr::decompress(stored.data(), stored.size(),
                                   back.data(), back.size());
        EXPECT_EQ(back, raw) << "size " << size;
        // All-zero blocks of the same size must also survive — the
        // long-run match path.
        std::vector<std::uint8_t> zeros(size, 0);
        const auto zstored =
            cache::LzCompr::compress(zeros.data(), zeros.size());
        std::vector<std::uint8_t> zback(size);
        cache::LzCompr::decompress(zstored.data(), zstored.size(),
                                   zback.data(), zback.size());
        EXPECT_EQ(zback, zeros) << "size " << size;
    }
}

TEST(LzCodec, TruncatedOrPaddedBlocksAreRejected)
{
    Rng rng(13);
    const auto raw = syntheticBlob(rng, 20, 20);
    const auto stored =
        cache::LzCompr::compress(raw.data(), raw.size());
    std::vector<std::uint8_t> out(raw.size());
    EXPECT_THROW(
        cache::LzCompr::decompress(stored.data(), 0, out.data(),
                                   out.size()),
        cache::CorruptBlockError);
    EXPECT_THROW(
        cache::LzCompr::decompress(stored.data(), stored.size() - 1,
                                   out.data(), out.size()),
        cache::CorruptBlockError);
    auto padded = stored;
    padded.push_back(0);
    EXPECT_THROW(
        cache::LzCompr::decompress(padded.data(), padded.size(),
                                   out.data(), out.size()),
        cache::CorruptBlockError);
    auto bad_mode = stored;
    bad_mode[0] = 0x7f;
    EXPECT_THROW(
        cache::LzCompr::decompress(bad_mode.data(), bad_mode.size(),
                                   out.data(), out.size()),
        cache::CorruptBlockError);
}

// Flipping any single bit of an lz block either makes the strict
// decoder reject it, or decodes to the original bytes, or decodes to
// different bytes — which the raw-bytes checksum the WAL and
// checkpoint callers keep then catches (most literal-byte flips land
// here; the codec alone cannot tell them apart). It never hands back
// a wrong payload that still verifies.
TEST(LzCodec, FlippedStoredByteNeverPublishesAWrongValue)
{
    Rng rng(47);
    const auto raw = syntheticBlob(rng, 24, 48);
    const auto stored =
        cache::LzCompr::compress(raw.data(), raw.size());
    const std::uint64_t raw_sum = rawChecksum(raw);

    int rejected = 0;
    for (std::size_t offset = 0; offset < stored.size(); ++offset) {
        for (int bit = 0; bit < 8; ++bit) {
            auto flipped = stored;
            flipped[offset] ^= static_cast<std::uint8_t>(1u << bit);
            std::vector<std::uint8_t> out(raw.size());
            try {
                cache::LzCompr::decompress(flipped.data(),
                                           flipped.size(), out.data(),
                                           out.size());
            } catch (const cache::CorruptBlockError &) {
                ++rejected;
                continue;
            }
            if (out != raw) {
                EXPECT_NE(rawChecksum(out), raw_sum)
                    << "byte " << offset << " bit " << bit
                    << " decoded to a wrong payload that verifies";
            }
        }
    }
    EXPECT_GT(rejected, 0)
        << "no flip was ever rejected — the strict decoder is dead";
}

TEST(CacheIntegrity, ErrorNamesWindowPeriodAndChecksums)
{
    const auto samples = syntheticDemand(4 * 6, 51);
    shapley::IncrementalTemporalEngine::Config config;
    config.windowPeriods = 4;
    config.periodSamples = 6;
    config.innerSplits = {3};
    config.cacheCapacity = 64; // identity codec: the flip always
                               // lands in checksummed plaintext
    shapley::IncrementalTemporalEngine engine(config);
    for (const double s : samples)
        engine.pushSample(s);
    (void)engine.computeWindow(1000.0);
    ASSERT_TRUE(engine.corruptCacheEntryForTest(9));
    try {
        (void)engine.computeWindow(1000.0);
        FAIL() << "corrupted cache entry went undetected";
    } catch (const shapley::CacheIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("period"), std::string::npos) << what;
        EXPECT_NE(what.find("stored 0x"), std::string::npos) << what;
        EXPECT_NE(what.find("computed 0x"), std::string::npos)
            << what;
    }
}

// ---------------------------------------------------------------
// Checkpoint codec matrix
// ---------------------------------------------------------------

struct TrialRecord
{
    std::uint64_t trial = 0;
    double value = 0.0;
};

TrialRecord
makeTrial(const Rng &base, std::uint64_t t)
{
    Rng rng = base.fork(t);
    return {t, rng.uniform(0.0, 1.0) + static_cast<double>(t)};
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "fairco2_backend_" + name + ".ckpt";
}

std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

resilience::CheckpointOptions
checkpointOptions(const std::string &path, cache::Codec codec,
                  std::uint64_t stop_after = 0)
{
    resilience::CheckpointOptions options;
    options.checkpointPath = path;
    options.codec = codec;
    options.chunkTrials = 8;
    options.stopAfterChunks = stop_after;
    return options;
}

std::vector<TrialRecord>
referenceRun(std::uint64_t trials)
{
    const Rng base(123);
    std::vector<TrialRecord> records;
    resilience::runCheckpointedTrials<TrialRecord>(
        resilience::CheckpointOptions{}, base, 0xfeed, trials,
        records, [&](std::uint64_t t) { return makeTrial(base, t); });
    return records;
}

TEST(CheckpointCodecs, KilledRunResumesIdenticalAcrossCodecMatrix)
{
    const std::uint64_t trials = 40;
    const auto expected = referenceRun(trials);
    const Rng base(123);
    const cache::Codec codecs[] = {cache::Codec::Identity,
                                   cache::Codec::Lz};
    for (const cache::Codec write_codec : codecs) {
        for (const cache::Codec resume_codec : codecs) {
            const std::string path = tempPath(
                std::string(cache::codecName(write_codec)) + "_" +
                cache::codecName(resume_codec));
            std::remove(path.c_str());

            // Phase 1: killed after two chunks, written with
            // write_codec.
            std::vector<TrialRecord> records;
            auto killed = resilience::runCheckpointedTrials<
                TrialRecord>(
                checkpointOptions(path, write_codec, 2), base,
                0xfeed, trials, records,
                [&](std::uint64_t t) { return makeTrial(base, t); });
            ASSERT_FALSE(killed.complete);

            // Phase 2: resume the file with resume_codec — the
            // reader auto-detects, the writer re-encodes.
            auto options = checkpointOptions(path, resume_codec);
            options.resumePath = path;
            records.clear();
            auto resumed = resilience::runCheckpointedTrials<
                TrialRecord>(
                options, base, 0xfeed, trials, records,
                [&](std::uint64_t t) { return makeTrial(base, t); });
            ASSERT_TRUE(resumed.complete);
            EXPECT_EQ(resumed.resumedChunks, 2u);
            ASSERT_EQ(records.size(), expected.size());
            EXPECT_EQ(std::memcmp(records.data(), expected.data(),
                                  records.size() *
                                      sizeof(TrialRecord)),
                      0)
                << cache::codecName(write_codec) << " -> "
                << cache::codecName(resume_codec);

            // The resumed run's final file must be byte-identical
            // to an uninterrupted run writing the same codec.
            const std::string clean_path = tempPath(
                std::string("clean_") +
                cache::codecName(resume_codec));
            std::remove(clean_path.c_str());
            std::vector<TrialRecord> clean_records;
            resilience::runCheckpointedTrials<TrialRecord>(
                checkpointOptions(clean_path, resume_codec), base,
                0xfeed, trials, clean_records,
                [&](std::uint64_t t) { return makeTrial(base, t); });
            EXPECT_EQ(fileBytes(path), fileBytes(clean_path))
                << cache::codecName(write_codec) << " -> "
                << cache::codecName(resume_codec);
            std::remove(path.c_str());
            std::remove(clean_path.c_str());
        }
    }
}

TEST(CheckpointCodecs, IdentityWritesTheV1FormatLzWritesV2)
{
    const Rng base(123);
    for (const cache::Codec codec :
         {cache::Codec::Identity, cache::Codec::Lz}) {
        const std::string path = tempPath(
            std::string("version_") + cache::codecName(codec));
        std::remove(path.c_str());
        std::vector<TrialRecord> records;
        resilience::runCheckpointedTrials<TrialRecord>(
            checkpointOptions(path, codec), base, 0xfeed, 40,
            records,
            [&](std::uint64_t t) { return makeTrial(base, t); });
        const auto bytes = fileBytes(path);
        ASSERT_GE(bytes.size(), 8u);
        EXPECT_EQ(std::memcmp(bytes.data(), "FC2K", 4), 0);
        std::uint32_t version = 0;
        std::memcpy(&version, bytes.data() + 4, 4);
        EXPECT_EQ(version,
                  codec == cache::Codec::Identity ? 1u : 2u);
        if (codec == cache::Codec::Lz) {
            // The compressed payload must actually be smaller than
            // the raw records it encodes.
            const std::size_t raw_bytes =
                40 * sizeof(TrialRecord);
            EXPECT_LT(bytes.size(),
                      raw_bytes + 128 /* header + bitmap slack */);
        }
        std::remove(path.c_str());
    }
}

TEST(CheckpointCodecs, CorruptCompressedPayloadIsRejected)
{
    const Rng base(123);
    const std::string path = tempPath("corrupt");
    std::remove(path.c_str());
    std::vector<TrialRecord> records;
    resilience::runCheckpointedTrials<TrialRecord>(
        checkpointOptions(path, cache::Codec::Lz), base, 0xfeed, 40,
        records, [&](std::uint64_t t) { return makeTrial(base, t); });

    // A flipped payload byte breaks the trailing file checksum.
    auto bytes = fileBytes(path);
    ASSERT_GT(bytes.size(), 80u);
    auto flipped = bytes;
    flipped[70] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(flipped.data()),
                  static_cast<std::streamsize>(flipped.size()));
    }
    EXPECT_THROW((void)resilience::detail::readCheckpointFile(path),
                 resilience::CheckpointError);

    // A payload that checksums cleanly but no longer decompresses
    // (first stored byte forced to an invalid transform mode) must
    // be rejected too, not silently decoded into wrong records.
    auto forged = bytes;
    const std::size_t header = 4 + 4 + 4 + 5 * 8 + 8; // v2 header
    const std::size_t bitmap = 1;                     // 5 chunks
    forged[header + bitmap] = 0x7f;
    std::uint64_t checksum = resilience::fnv1a64(
        forged.data(), forged.size() - 8);
    std::memcpy(forged.data() + forged.size() - 8, &checksum, 8);
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(forged.data()),
                  static_cast<std::streamsize>(forged.size()));
    }
    EXPECT_THROW((void)resilience::detail::readCheckpointFile(path),
                 resilience::CheckpointError);
    std::remove(path.c_str());
}

TEST(CheckpointCodecs, UnknownVersionOrCodecIdIsRejected)
{
    const Rng base(123);
    const std::string path = tempPath("fields");
    std::remove(path.c_str());
    std::vector<TrialRecord> records;
    resilience::runCheckpointedTrials<TrialRecord>(
        checkpointOptions(path, cache::Codec::Lz), base, 0xfeed, 40,
        records, [&](std::uint64_t t) { return makeTrial(base, t); });
    const auto bytes = fileBytes(path);

    const auto rewrite = [&](std::size_t offset,
                             std::uint32_t value) {
        auto forged = bytes;
        std::memcpy(forged.data() + offset, &value, 4);
        std::uint64_t checksum = resilience::fnv1a64(
            forged.data(), forged.size() - 8);
        std::memcpy(forged.data() + forged.size() - 8, &checksum,
                    8);
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(forged.data()),
                  static_cast<std::streamsize>(forged.size()));
    };

    rewrite(4, 3u); // unsupported version
    EXPECT_THROW((void)resilience::detail::readCheckpointFile(path),
                 resilience::CheckpointError);
    rewrite(8, 9u); // unknown codec id
    EXPECT_THROW((void)resilience::detail::readCheckpointFile(path),
                 resilience::CheckpointError);
    std::remove(path.c_str());
}

} // namespace
} // namespace fairco2
