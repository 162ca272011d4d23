/**
 * @file
 * Tests for the durability write-ahead log: frame round-trips,
 * segment rotation and atomic sealing, group-commit visibility, the
 * integrity taxonomy (sealed damage always throws; tail damage drops
 * the torn suffix with a named diagnostic and never yields a wrong
 * value), the version gate, write failures surfacing as errors,
 * tail adoption on recovery, the compression codec path, windowed
 * loads, the scrub's read-once record list and its detection
 * contract, and the scrub digest helpers, including the parallel
 * derivation's thread-count independence and its sensitivity to one
 * unit of drift.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/compr_api.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "durability/wal.hh"

namespace fairco2::durability
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kHash = 0x1234abcd5678ef01ULL;

/** Fresh per-test scratch directory. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "fairco2_wal_" +
        name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A deterministic, non-trivial record for period @p period. */
WalTickRecord
makeRecord(std::uint64_t period, std::size_t batches = 3)
{
    WalTickRecord record;
    record.period = period;
    for (std::size_t i = 0; i < batches; ++i) {
        WalBatch batch;
        batch.tenant = period * 10 + i;
        batch.period = period;
        batch.coveredPeriods = static_cast<std::uint32_t>(1 + i % 3);
        batch.deferred = i % 2;
        record.admitted.push_back(batch);
    }
    WalBatch deferred;
    deferred.tenant = period + 1000;
    deferred.period = period;
    deferred.deferred = 1;
    record.deferredOut.push_back(deferred);
    record.offeredDelta = batches + 2;
    record.deferredDelta = 1;
    record.rejectedDelta = 1;
    record.shedDelta = period % 2;
    record.totalOffered = (period + 1) * (batches + 2);
    record.totalAdmitted = (period + 1) * batches;
    record.totalDeferred = period + 1;
    record.totalRejected = period + 1;
    record.bucketTokens[0] = 7;
    record.bucketTokens[1] = 5;
    record.bucketTokens[2] = period;
    record.overloadLevel = static_cast<std::uint32_t>(period % 3);
    return record;
}

std::vector<WalTickRecord>
writeLog(const std::string &dir, std::size_t count,
         std::uint64_t segment_records,
         cache::Codec codec = cache::Codec::Identity,
         bool seal_tail = false)
{
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.codec = codec;
    options.segmentRecords = segment_records;
    WalWriter writer(options);
    std::vector<WalTickRecord> records;
    for (std::size_t i = 0; i < count; ++i) {
        records.push_back(makeRecord(i));
        writer.append(records.back());
    }
    if (seal_tail)
        writer.seal();
    return records;
}

TEST(WalRecord, RoundTripsThroughEncode)
{
    const WalTickRecord record = makeRecord(17, 5);
    const auto bytes = encodeRecord(record);
    EXPECT_EQ(decodeRecord(bytes), record);
}

TEST(WalRecord, RejectsTrailingBytes)
{
    auto bytes = encodeRecord(makeRecord(2));
    bytes.push_back(0);
    EXPECT_THROW(decodeRecord(bytes), WalIntegrityError);
}

TEST(WalWriter, RotatesAndSealsAtCapacity)
{
    const std::string dir = scratchDir("rotate");
    const auto records = writeLog(dir, 10, 4);

    EXPECT_TRUE(fs::exists(segmentPath(dir, 1, true)));
    EXPECT_TRUE(fs::exists(segmentPath(dir, 2, true)));
    EXPECT_TRUE(fs::exists(segmentPath(dir, 3, false)));
    EXPECT_FALSE(fs::exists(segmentPath(dir, 3, true)));

    const WalLoadResult load = loadWal(dir, kHash);
    ASSERT_EQ(load.records.size(), 10u);
    EXPECT_EQ(load.sealedSegments, 2u);
    EXPECT_EQ(load.tailRecords, 2u);
    EXPECT_FALSE(load.droppedTail);
    EXPECT_EQ(load.nextSegmentIndex, 3u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(load.records[i], records[i]) << "record " << i;
}

TEST(WalWriter, GroupCommitIsVisibleWithoutSeal)
{
    const std::string dir = scratchDir("groupcommit");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    writer.append(makeRecord(0));
    // No seal, writer still open: the flushed tail must already be
    // readable — this is what makes kill -9 at any tick recoverable.
    const WalLoadResult load = loadWal(dir, kHash);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.records[0], makeRecord(0));
}

TEST(WalWriter, CleanSealLeavesNoTail)
{
    const std::string dir = scratchDir("cleanseal");
    writeLog(dir, 6, 4, cache::Codec::Identity, true);
    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_EQ(load.records.size(), 6u);
    EXPECT_EQ(load.sealedSegments, 2u); // 4 + a short sealed tail
    EXPECT_EQ(load.tailRecords, 0u);
    EXPECT_EQ(load.nextSegmentIndex, 3u);
}

TEST(WalWriter, SealCountsSkipEmptySegments)
{
    const std::string dir = scratchDir("sealempty");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    writer.seal(); // nothing written: must be a no-op
    EXPECT_EQ(writer.segmentsSealed(), 0u);
    EXPECT_TRUE(loadWal(dir, kHash).records.empty());
}

TEST(WalLoad, EmptyDirectoryHoldsNoRecords)
{
    const std::string dir = scratchDir("empty");
    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_TRUE(load.records.empty());
    EXPECT_EQ(load.sealedSegments, 0u);
    EXPECT_EQ(load.nextSegmentIndex, 1u);
}

TEST(WalLoad, TornAppendDropsOnlyTheTornRecord)
{
    const std::string dir = scratchDir("torn");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 16;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 5; ++p)
        writer.append(makeRecord(p));
    writer.appendTorn(makeRecord(5));

    const WalLoadResult load = loadWal(dir, kHash);
    ASSERT_EQ(load.records.size(), 5u);
    EXPECT_TRUE(load.droppedTail);
    EXPECT_NE(load.tailDiagnostic.find("dropped torn wal tail"),
              std::string::npos)
        << load.tailDiagnostic;
    EXPECT_NE(load.tailDiagnostic.find("record 5"),
              std::string::npos)
        << load.tailDiagnostic;
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(load.records[i], makeRecord(i));
}

TEST(WalLoad, FlippedTailByteDropsSuffixNeverAWrongValue)
{
    const std::string dir = scratchDir("flip_tail");
    const auto records = writeLog(dir, 6, 16);
    const std::string tail = segmentPath(dir, 1, false);

    // Flip one payload byte in the middle of the tail: everything
    // before the damaged record survives, everything after drops.
    auto size = fs::file_size(tail);
    std::fstream file(tail, std::ios::in | std::ios::out |
                                std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
    file.close();

    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_TRUE(load.droppedTail);
    EXPECT_LT(load.records.size(), 6u);
    for (std::size_t i = 0; i < load.records.size(); ++i)
        EXPECT_EQ(load.records[i], records[i]) << "record " << i;
}

TEST(WalLoad, FlippedSealedByteAlwaysThrows)
{
    const std::string dir = scratchDir("flip_sealed");
    writeLog(dir, 8, 4);
    const std::string sealed = segmentPath(dir, 1, true);
    auto size = fs::file_size(sealed);
    std::fstream file(sealed, std::ios::in | std::ios::out |
                                  std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size - 20));
    const char byte = 0x5a;
    file.write(&byte, 1);
    file.close();

    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalLoad, MissingSealedSegmentThrows)
{
    const std::string dir = scratchDir("gap");
    writeLog(dir, 10, 4);
    fs::remove(segmentPath(dir, 1, true));
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalLoad, ConfigHashMismatchThrows)
{
    const std::string dir = scratchDir("hash");
    writeLog(dir, 2, 16);
    EXPECT_THROW(loadWal(dir, kHash + 1), WalIntegrityError);
}

TEST(WalLoad, TruncatedHeaderThrows)
{
    const std::string dir = scratchDir("header");
    writeLog(dir, 5, 4, cache::Codec::Identity, true);
    std::ofstream out(segmentPath(dir, 1, true),
                      std::ios::binary | std::ios::trunc);
    out << "FC";
    out.close();
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalLoad, OldVersionSegmentIsRejectedByName)
{
    // A version-2 log carries 16 more bytes per tick record; it must
    // fail by name, never parse as shifted fields.
    const std::string dir = scratchDir("old_version");
    writeLog(dir, 5, 4);
    const std::string sealed = segmentPath(dir, 1, true);
    std::fstream file(sealed, std::ios::in | std::ios::out |
                                  std::ios::binary);
    file.seekp(4); // the u32 version follows the magic
    const char old_version[4] = {2, 0, 0, 0};
    file.write(old_version, 4);
    file.close();

    try {
        loadWal(dir, kHash);
        FAIL() << "a version-2 segment must not load";
    } catch (const WalIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(sealed), std::string::npos) << what;
        EXPECT_NE(what.find("has version 2, expected 3"),
                  std::string::npos)
            << what;
    }
}

TEST(WalWriter, FailedFlushThrowsInsteadOfCommitting)
{
    // A full disk: the tail path resolves to /dev/full, so every
    // flush fails with ENOSPC. The first append must throw naming
    // the segment, not return as if the tick were committed.
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    const std::string dir = scratchDir("full_disk");
    const std::string tail = segmentPath(dir, 1, false);
    fs::create_symlink("/dev/full", tail);

    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    try {
        writer.append(makeRecord(0));
        FAIL() << "append to a full disk must throw";
    } catch (const WalIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(tail), std::string::npos) << what;
        EXPECT_NE(what.find(std::strerror(ENOSPC)),
                  std::string::npos)
            << what;
    }
    EXPECT_EQ(writer.recordsAppended(), 0u);
}

TEST(WalWriter, AdoptTailConvergesOnUninterruptedLayout)
{
    // A log torn mid-tail, then adopted and continued, must end up
    // byte-identical in content to one written without the crash.
    const std::string crashed = scratchDir("adopt_crashed");
    const std::string clean = scratchDir("adopt_clean");
    const auto all = writeLog(clean, 10, 4, cache::Codec::Identity,
                              true);

    {
        WalWriter::Options options;
        options.dir = crashed;
        options.configHash = kHash;
        options.segmentRecords = 4;
        WalWriter writer(options);
        for (std::uint64_t p = 0; p < 6; ++p)
            writer.append(makeRecord(p));
        writer.appendTorn(makeRecord(6));
    }
    const WalLoadResult partial = loadWal(crashed, kHash);
    ASSERT_EQ(partial.records.size(), 6u);
    ASSERT_TRUE(partial.droppedTail);

    WalWriter::Options options;
    options.dir = crashed;
    options.configHash = kHash;
    options.segmentRecords = 4;
    options.firstSegmentIndex = partial.nextSegmentIndex;
    options.firstRecordIndex =
        partial.records.size() - partial.tailRecords;
    WalWriter writer(options);
    writer.adoptTail(std::vector<WalTickRecord>(
        partial.records.end() -
            static_cast<std::ptrdiff_t>(partial.tailRecords),
        partial.records.end()));
    for (std::uint64_t p = 6; p < 10; ++p)
        writer.append(makeRecord(p));
    writer.seal();

    const WalLoadResult merged = loadWal(crashed, kHash);
    ASSERT_EQ(merged.records.size(), all.size());
    EXPECT_FALSE(merged.droppedTail);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(merged.records[i], all[i]) << "record " << i;
    EXPECT_EQ(merged.sealedSegments,
              loadWal(clean, kHash).sealedSegments);
}

TEST(WalWriter, AdoptTailAfterAppendIsRejected)
{
    const std::string dir = scratchDir("adopt_late");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    writer.append(makeRecord(0));
    EXPECT_THROW(writer.adoptTail({makeRecord(0)}),
                 std::logic_error);
}

TEST(WalCodec, CompressedLogRoundTripsAndShrinks)
{
    const std::string compressed = scratchDir("lz");
    const std::string identity = scratchDir("ident");
    // Fat, repetitive records compress well.
    WalWriter::Options options;
    options.dir = compressed;
    options.configHash = kHash;
    options.codec = cache::Codec::Lz;
    WalWriter lz(options);
    options.dir = identity;
    options.codec = cache::Codec::Identity;
    WalWriter plain(options);
    std::vector<WalTickRecord> records;
    for (std::uint64_t p = 0; p < 6; ++p) {
        records.push_back(makeRecord(p, 64));
        lz.append(records.back());
        plain.append(records.back());
    }
    EXPECT_EQ(lz.rawBytes(), plain.rawBytes());
    EXPECT_LT(lz.storedBytes(), plain.storedBytes());

    const WalLoadResult load = loadWal(compressed, kHash);
    ASSERT_EQ(load.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(load.records[i], records[i]) << "record " << i;
}

TEST(WalCodec, FlippedCompressedByteIsNeverAWrongValue)
{
    const std::string dir = scratchDir("lz_flip");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.codec = cache::Codec::Lz;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 4; ++p)
        writer.append(makeRecord(p, 64));

    const std::string tail = segmentPath(dir, 1, false);
    const auto size = fs::file_size(tail);
    std::fstream file(tail, std::ios::in | std::ios::out |
                                std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size / 3));
    const char byte = 0x13;
    file.write(&byte, 1);
    file.close();

    // Either the frame checksum catches it (suffix dropped) or —
    // never — a decoded record differs. Check both halves.
    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_TRUE(load.droppedTail);
    for (std::size_t i = 0; i < load.records.size(); ++i)
        EXPECT_EQ(load.records[i], makeRecord(i, 64));
}

/** Flip one payload byte of frame @p frame (0-based, within the
 *  segment) of the segment at @p path: the frame's length fields stay
 *  intact, its checksum no longer matches. */
void
flipPayloadByte(const std::string &path, std::size_t frame)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    std::streamoff pos = 4 + 4 + 8 + 8; // the segment header
    const auto u32At = [&file](std::streamoff at) {
        unsigned char bytes[4] = {0, 0, 0, 0};
        file.seekg(at);
        file.read(reinterpret_cast<char *>(bytes), 4);
        return static_cast<std::uint32_t>(bytes[0]) |
            static_cast<std::uint32_t>(bytes[1]) << 8 |
            static_cast<std::uint32_t>(bytes[2]) << 16 |
            static_cast<std::uint32_t>(bytes[3]) << 24;
    };
    for (std::size_t i = 0; i < frame; ++i)
        pos += 4 + 4 + 1 + u32At(pos + 4) + 8;
    const std::streamoff at = pos + 4 + 4 + 1 + u32At(pos + 4) / 2;
    char byte = 0;
    file.seekg(at);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(at);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good()) << path;
}

/** Every windowed load of @p dir is the full load's suffix, and a
 *  load from past the end throws. */
void
expectWindowedLoadsMatch(const std::string &dir)
{
    const WalLoadResult full = loadWal(dir, kHash);
    const std::size_t n = full.records.size();
    ASSERT_GT(n, 0u);
    for (std::size_t from = 0; from <= n; ++from) {
        const WalLoadResult part = loadWal(dir, kHash, from);
        ASSERT_EQ(part.records.size(), n - from) << "from " << from;
        for (std::size_t i = 0; i < part.records.size(); ++i)
            EXPECT_EQ(part.records[i], full.records[from + i])
                << "from " << from << ", record " << from + i;
        EXPECT_EQ(part.sealedSegments, full.sealedSegments);
        EXPECT_EQ(part.nextSegmentIndex, full.nextSegmentIndex);
        EXPECT_EQ(part.droppedTail, full.droppedTail);
        EXPECT_EQ(part.tailRecords,
                  std::min(full.tailRecords, part.records.size()));
    }
    EXPECT_THROW(loadWal(dir, kHash, n + 1), WalIntegrityError);
}

TEST(WalWindowedLoad, SuffixOfSixRecordSegments)
{
    const std::string dir = scratchDir("window_six");
    writeLog(dir, 20, 6); // three sealed segments + a 2-record tail
    expectWindowedLoadsMatch(dir);
}

TEST(WalWindowedLoad, SuffixAcrossAShortSeal)
{
    // A SIGTERM drain seals a short segment mid-log; the recovered
    // run continues in the next one.
    const std::string dir = scratchDir("window_short");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 6;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 15; ++p) {
        writer.append(makeRecord(p));
        if (p == 7)
            writer.seal(); // segment 2 holds records 6 and 7
    }
    ASSERT_EQ(loadWal(dir, kHash).sealedSegments, 3u);
    expectWindowedLoadsMatch(dir);
}

TEST(WalWindowedLoad, SuffixOfAnAdoptedTail)
{
    const std::string dir = scratchDir("window_adopted");
    {
        WalWriter::Options options;
        options.dir = dir;
        options.configHash = kHash;
        options.segmentRecords = 4;
        WalWriter writer(options);
        for (std::uint64_t p = 0; p < 6; ++p)
            writer.append(makeRecord(p));
        writer.appendTorn(makeRecord(6));
    }
    const WalLoadResult partial = loadWal(dir, kHash);
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 4;
    options.firstSegmentIndex = partial.nextSegmentIndex;
    options.firstRecordIndex =
        partial.records.size() - partial.tailRecords;
    WalWriter writer(options);
    writer.adoptTail(std::vector<WalTickRecord>(
        partial.records.end() -
            static_cast<std::ptrdiff_t>(partial.tailRecords),
        partial.records.end()));
    for (std::uint64_t p = 6; p < 11; ++p)
        writer.append(makeRecord(p));
    ASSERT_EQ(loadWal(dir, kHash).tailRecords, 3u);
    expectWindowedLoadsMatch(dir);
}

TEST(WalWindowedLoad, SuffixOfCompressedFrames)
{
    const std::string dir = scratchDir("window_lz");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.codec = cache::Codec::Lz;
    options.segmentRecords = 6;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 14; ++p)
        writer.append(makeRecord(p, 64));
    ASSERT_LT(writer.storedBytes(), writer.rawBytes());
    expectWindowedLoadsMatch(dir);
}

TEST(WalWindowedLoad, DamageBeforeFromIsNotRead)
{
    // Segment 1 holds records 0-5. A damaged payload there fails the
    // full load; a load from record 6 does not open segment 1, and a
    // load from record 3 steps over frame 2 by its length fields.
    const std::string dir = scratchDir("window_skip");
    const auto records = writeLog(dir, 20, 6);
    flipPayloadByte(segmentPath(dir, 1, true), 2);
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
    EXPECT_THROW(loadWal(dir, kHash, 2), WalIntegrityError);
    for (std::uint64_t from : {3u, 6u, 13u}) {
        const WalLoadResult load = loadWal(dir, kHash, from);
        ASSERT_EQ(load.records.size(), records.size() - from) << from;
        for (std::size_t i = 0; i < load.records.size(); ++i)
            EXPECT_EQ(load.records[i], records[from + i]) << from;
    }
}

TEST(WalLoad, StrayCopyCannotShadowASegment)
{
    // "wal-000001 (copy).seg" starts with segment 1's digits; read as
    // index 1 it would replace the real segment 1.
    const std::string dir = scratchDir("stray");
    writeLog(dir, 10, 6, cache::Codec::Identity, true);
    const std::string stray = dir + "/wal-000001 (copy).seg";
    fs::copy_file(segmentPath(dir, 2, true), stray);
    try {
        loadWal(dir, kHash);
        FAIL() << "a stray wal-* name must not load";
    } catch (const WalIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("wal-000001 (copy).seg"), std::string::npos)
            << what;
        EXPECT_NE(what.find("not a number"), std::string::npos) << what;
    }
    fs::remove(stray);

    // Two names for one index are ambiguous too.
    const std::string alias = dir + "/wal-1.seg";
    fs::copy_file(segmentPath(dir, 1, true), alias);
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
    fs::remove(alias);

    // A leftover tail rewrite has an unknown suffix: skipped.
    std::ofstream(dir + "/wal-000003.open.tmp") << "partial";
    EXPECT_EQ(loadWal(dir, kHash).records.size(), 10u);
}

// ---- The scrub's record list ----------------------------------------

/** `durability.wal.frames_read` so far (0 with obs compiled out). */
std::uint64_t
framesRead()
{
    return obs::counter("durability.wal.frames_read").value();
}

TEST(ScrubLog, ReadsEachFrameOnceAndStaysBounded)
{
    const std::string dir = scratchDir("scrublog_once");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 6;
    WalWriter writer(options);
    obs::resetForTest();
    obs::setEnabled(true);
    ScrubLog log(dir, kHash);
    std::vector<WalTickRecord> none;
    for (std::uint64_t p = 0; p < 17; ++p) {
        writer.append(makeRecord(p));
        if (p == 8 || p == 16)
            log.extend(p + 1, none);
    }
    const std::uint64_t frames = framesRead();
    obs::resetForTest();
#if !defined(FAIRCO2_OBS_OFF)
    EXPECT_EQ(frames, 17u);
#else
    (void)frames;
#endif
    ASSERT_EQ(log.records().size(), 17u);
    for (std::uint64_t p = 0; p < 17; ++p)
        EXPECT_EQ(log.records()[p], makeRecord(p));
    log.dropThrough(10);
    ASSERT_EQ(log.records().size(), 6u);
    EXPECT_EQ(log.records().front().period, 11u);
}

TEST(ScrubLog, TakesRecoveredRecordsWithoutReadingThem)
{
    const std::string dir = scratchDir("scrublog_recovered");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 6;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 9; ++p)
        writer.append(makeRecord(p));
    std::vector<WalTickRecord> recovered = loadWal(dir, kHash).records;
    for (std::uint64_t p = 9; p < 12; ++p)
        writer.append(makeRecord(p));
    // Damage in the recovered range proves extend() does not read it.
    flipPayloadByte(segmentPath(dir, 1, true), 3);

    obs::resetForTest();
    obs::setEnabled(true);
    ScrubLog log(dir, kHash);
    log.extend(5, recovered);
    log.extend(12, recovered);
    const std::uint64_t frames = framesRead();
    obs::resetForTest();
#if !defined(FAIRCO2_OBS_OFF)
    EXPECT_EQ(frames, 3u); // records 9-11, from disk
#else
    (void)frames;
#endif
    ASSERT_EQ(log.records().size(), 12u);
    for (std::uint64_t p = 0; p < 12; ++p)
        EXPECT_EQ(log.records()[p], makeRecord(p));
}

/** A ScrubLog over a fresh log that has scrubbed records 0-8; the
 *  writer then commits records 9 to @p end - 1, and @p damage flips a
 *  byte in one of them. The next extend() must throw naming the
 *  damaged segment. */
void
expectNextScrubThrows(const std::string &name,
                      std::uint64_t segment_records, std::uint64_t end,
                      const std::string &damaged, std::size_t frame)
{
    const std::string dir = scratchDir(name);
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = segment_records;
    WalWriter writer(options);
    ScrubLog log(dir, kHash);
    std::vector<WalTickRecord> none;
    for (std::uint64_t p = 0; p < 9; ++p)
        writer.append(makeRecord(p));
    log.extend(9, none);
    for (std::uint64_t p = 9; p < end; ++p)
        writer.append(makeRecord(p));
    const std::string path = dir + "/" + damaged;
    ASSERT_TRUE(fs::exists(path)) << path;
    flipPayloadByte(path, frame);
    try {
        log.extend(end, none);
        FAIL() << "a damaged committed frame must fail the scrub";
    } catch (const WalIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
}

TEST(ScrubLog, DamageInTheOpenTailSinceTheLastScrubThrows)
{
    // One 16-record segment: records 0-12 all in `.open`; record 11
    // is damaged. Recovery would drop it as a torn tail; the scrub,
    // whose writer committed it, must not.
    expectNextScrubThrows("scrublog_open", 16, 13, "wal-000001.open",
                          11);
}

TEST(ScrubLog, DamageInAJustSealedSegmentThrows)
{
    // Six-record segments: records 6-11 form segment 2, sealed by
    // record 11's append; record 10 is damaged.
    expectNextScrubThrows("scrublog_sealed", 6, 12, "wal-000002.seg",
                          4);
}

TEST(ScrubLog, DamageBeforeTheLastScrubIsLeftToRecovery)
{
    // Each frame is checksummed by the first scrub after its commit;
    // later damage to it is caught by recovery's full load, not by a
    // later scrub.
    const std::string dir = scratchDir("scrublog_old");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 6;
    WalWriter writer(options);
    ScrubLog log(dir, kHash);
    std::vector<WalTickRecord> none;
    for (std::uint64_t p = 0; p < 9; ++p)
        writer.append(makeRecord(p));
    log.extend(9, none);
    flipPayloadByte(segmentPath(dir, 1, true), 2);
    for (std::uint64_t p = 9; p < 17; ++p)
        writer.append(makeRecord(p));
    EXPECT_NO_THROW(log.extend(17, none));
    EXPECT_EQ(log.records().back(), makeRecord(16));
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(ScrubLog, AShortLogThrows)
{
    const std::string dir = scratchDir("scrublog_short");
    writeLog(dir, 5, 6);
    ScrubLog log(dir, kHash);
    std::vector<WalTickRecord> none;
    EXPECT_THROW(log.extend(6, none), WalIntegrityError);
}

TEST(WalDirError, ReportsFileInPlaceOfDirectory)
{
    const std::string path =
        ::testing::TempDir() + "fairco2_wal_notadir";
    std::ofstream(path, std::ios::trunc) << "x";
    EXPECT_NE(walDirError(path).find("not a directory"),
              std::string::npos);
    // And a path *under* a file cannot be created.
    EXPECT_FALSE(walDirError(path + "/sub").empty());
    fs::remove(path);
}

TEST(WalDirError, CreatesMissingDirectories)
{
    const std::string dir = scratchDir("mkdirs") + "/a/b";
    EXPECT_EQ(walDirError(dir), "");
    EXPECT_TRUE(fs::is_directory(dir));
}

TEST(WalDigest, EmptyWindowHashesTheClosedCount)
{
    // Zero closed periods still has a well-defined digest, and it
    // must differ from one closed period with an empty sum.
    const std::uint64_t none = windowSumDigest(0, {});
    EXPECT_NE(none, 0u);
    EXPECT_NE(none, windowSumDigest(1, {0}));

    const WindowDigests derived =
        deriveWindowDigests({}, 2, 4, 9, [](std::uint64_t,
                                            std::uint64_t) {
            return std::uint64_t{1};
        });
    EXPECT_EQ(derived.fleet, none);
    ASSERT_EQ(derived.shard.size(), 2u);
    EXPECT_EQ(derived.shard[0], none);
    EXPECT_EQ(derived.shard[1], none);
}

TEST(WalDigest, RoutesUnitsByTenantModShards)
{
    // One record, one admitted batch covering one closed period.
    WalTickRecord record;
    record.period = 9; // watermark 9 => period 0 closed
    WalBatch batch;
    batch.tenant = 3;
    batch.period = 1;
    batch.coveredPeriods = 1;
    record.admitted.push_back(batch);
    // covered period = 1 - 1 + 0 = 0, in-window.
    const auto units = [](std::uint64_t tenant, std::uint64_t) {
        return tenant * 100;
    };
    const WindowDigests derived = deriveWindowDigests(
        std::vector<WalTickRecord>{record}, 2, 4, 9, units);
    EXPECT_EQ(derived.fleet, windowSumDigest(1, {300}));
    EXPECT_EQ(derived.shard[0], windowSumDigest(1, {0}));
    EXPECT_EQ(derived.shard[1], windowSumDigest(1, {300}));
}

/** A log of @p periods arrival ticks whose batches spread over 41
 *  tenants and cover one to four periods each. */
std::vector<WalTickRecord>
digestLog(std::uint64_t periods)
{
    std::vector<WalTickRecord> records;
    for (std::uint64_t p = 0; p < periods; ++p) {
        WalTickRecord record;
        record.period = p;
        for (std::uint64_t i = 0; i < 7; ++i) {
            WalBatch batch;
            batch.tenant = (p * 7 + i * 13) % 41;
            batch.period = p;
            batch.coveredPeriods = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(1 + (p + i) % 4, p));
            if (batch.coveredPeriods > 0)
                record.admitted.push_back(batch);
        }
        records.push_back(record);
    }
    return records;
}

/** A pure stand-in for the tenant population's materialization. */
std::uint64_t
fakeUnits(std::uint64_t tenant, std::uint64_t period)
{
    return (tenant + 1) * 1000 + period * 7 + (tenant * period) % 13;
}

/** The derivation written as one serial pass over the log. */
WindowDigests
serialDigests(const std::vector<WalTickRecord> &records,
              std::size_t shards, std::uint64_t window_periods,
              std::uint64_t watermark)
{
    const std::uint64_t last = records.back().period;
    const std::uint64_t closed =
        last + 1 > watermark ? last + 1 - watermark : 0;
    const std::uint64_t window = std::min(window_periods, closed);
    const std::uint64_t first = closed - window;
    std::vector<std::uint64_t> fleet(window, 0);
    std::vector<std::vector<std::uint64_t>> shard_sums(
        shards, std::vector<std::uint64_t>(window, 0));
    for (const WalTickRecord &record : records)
        for (const WalBatch &batch : record.admitted)
            for (std::uint32_t p = 0; p < batch.coveredPeriods; ++p) {
                const std::uint64_t covered =
                    batch.period - batch.coveredPeriods + p;
                if (covered < first || covered >= first + window)
                    continue;
                const std::uint64_t units =
                    fakeUnits(batch.tenant, covered);
                fleet[covered - first] += units;
                shard_sums[batch.tenant % shards][covered - first] +=
                    units;
            }
    WindowDigests out;
    out.fleet = windowSumDigest(closed, fleet);
    for (const auto &sums : shard_sums)
        out.shard.push_back(windowSumDigest(closed, sums));
    return out;
}

TEST(WalDigest, ParallelDerivationIsThreadCountIndependent)
{
    const std::vector<WalTickRecord> records = digestLog(30);
    const WindowDigests want = serialDigests(records, 5, 6, 5);
    ASSERT_EQ(want.shard.size(), 5u);
    const std::size_t saved = parallel::threadCount();
    for (std::size_t threads : {1u, 2u, 8u}) {
        parallel::setThreadCount(threads);
        const WindowDigests got =
            deriveWindowDigests(records, 5, 6, 5, fakeUnits);
        EXPECT_EQ(got, want) << threads << " threads";
    }
    parallel::setThreadCount(saved);
}

TEST(WalDigest, OneUnitOfDriftChangesOnlyItsShardAndTheFleet)
{
    // The scrub comparison must be able to fail: one extra unit for
    // one tenant moves that tenant's shard digest and the fleet
    // digest, and nothing else.
    const std::vector<WalTickRecord> records = digestLog(30);
    const ScrubWindow window = scrubWindow(records, 6, 5);
    ASSERT_EQ(window.periods, 6u);
    // A tenant with a batch covering the newest in-window period.
    const std::uint64_t newest = window.first + window.periods - 1;
    std::uint64_t tenant = ~std::uint64_t{0};
    for (const WalTickRecord &record : records)
        for (const WalBatch &batch : record.admitted)
            if (batch.period > newest &&
                batch.period - batch.coveredPeriods <= newest)
                tenant = batch.tenant;
    ASSERT_NE(tenant, ~std::uint64_t{0});

    const WindowDigests honest =
        deriveWindowDigests(records, 5, 6, 5, fakeUnits);
    const WindowDigests drifted = deriveWindowDigests(
        records, 5, 6, 5, [tenant](std::uint64_t t, std::uint64_t p) {
            return fakeUnits(t, p) + (t == tenant ? 1 : 0);
        });
    EXPECT_FALSE(drifted == honest);
    EXPECT_NE(drifted.fleet, honest.fleet);
    for (std::size_t s = 0; s < 5; ++s) {
        if (s == tenant % 5)
            EXPECT_NE(drifted.shard[s], honest.shard[s]);
        else
            EXPECT_EQ(drifted.shard[s], honest.shard[s]) << s;
    }
}

} // namespace
} // namespace fairco2::durability
