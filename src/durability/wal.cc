#include "durability/wal.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <system_error>

#include "cache/compr_api.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "resilience/checkpoint.hh"

namespace fairco2::durability
{

namespace
{

namespace fs = std::filesystem;
using resilience::fnv1a64;

constexpr char kMagic[4] = {'F', 'C', '2', 'W'};
/** Segment header: magic + version + config hash + first record. */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
/** Frame header: raw_bytes + stored_bytes + codec. */
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1;
/** A record frame can never legitimately exceed this — anything
 *  larger is framing damage, not data. */
constexpr std::uint32_t kMaxRecordBytes = 1u << 28;

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Bounds-checked little-endian reads over a byte span. */
struct ByteReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    bool
    need(std::size_t n) const
    {
        return pos + n <= size;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            throw WalIntegrityError("wal record truncated mid-field");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            throw WalIntegrityError("wal record truncated mid-field");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            throw WalIntegrityError("wal record truncated mid-field");
        return data[pos++];
    }
};

void
putBatches(std::vector<std::uint8_t> &out,
           const std::vector<WalBatch> &batches)
{
    putU32(out, static_cast<std::uint32_t>(batches.size()));
    for (const WalBatch &b : batches) {
        putU64(out, b.tenant);
        putU64(out, b.period);
        putU32(out, b.coveredPeriods);
        out.push_back(b.deferred);
    }
}

std::vector<WalBatch>
getBatches(ByteReader &in)
{
    const std::uint32_t n = in.u32();
    if (n > kMaxRecordBytes / 21)
        throw WalIntegrityError("wal record batch count " +
                                std::to_string(n) +
                                " is implausible");
    std::vector<WalBatch> batches(n);
    for (WalBatch &b : batches) {
        b.tenant = in.u64();
        b.period = in.u64();
        b.coveredPeriods = in.u32();
        b.deferred = in.u8();
    }
    return batches;
}

/** Codec dispatch over the cache compressor plug-ins. */
std::vector<std::uint8_t>
encodeBlob(cache::Codec codec, const std::vector<std::uint8_t> &raw)
{
    switch (codec) {
    case cache::Codec::Lz:
        return cache::LzCompr::compress(raw.data(), raw.size());
    case cache::Codec::Identity:
    default:
        return raw;
    }
}

std::vector<std::uint8_t>
decodeBlob(cache::Codec codec, const std::uint8_t *stored,
           std::size_t stored_size, std::size_t raw_size)
{
    std::vector<std::uint8_t> raw(raw_size);
    switch (codec) {
    case cache::Codec::Lz:
        cache::LzCompr::decompress(stored, stored_size, raw.data(),
                                   raw_size);
        break;
    case cache::Codec::Identity:
    default:
        cache::IdentityCompr::decompress(stored, stored_size,
                                         raw.data(), raw_size);
        break;
    }
    return raw;
}

std::vector<std::uint8_t>
headerBytes(std::uint64_t config_hash, std::uint64_t first_record)
{
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes);
    out.insert(out.end(), kMagic, kMagic + 4);
    putU32(out, kWalVersion);
    putU64(out, config_hash);
    putU64(out, first_record);
    return out;
}

/** Serialize one frame (header + payload + checksum). */
std::vector<std::uint8_t>
frameBytes(const WalTickRecord &record, cache::Codec codec,
           std::uint64_t *raw_bytes)
{
    const std::vector<std::uint8_t> raw = encodeRecord(record);
    std::vector<std::uint8_t> stored = encodeBlob(codec, raw);
    // The codec is a capacity optimization, never an integrity
    // risk: when compression does not pay, store raw.
    cache::Codec used = codec;
    if (stored.size() >= raw.size()) {
        stored = raw;
        used = cache::Codec::Identity;
    }
    if (raw_bytes)
        *raw_bytes = raw.size();

    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + stored.size() + 8);
    putU32(frame, static_cast<std::uint32_t>(raw.size()));
    putU32(frame, static_cast<std::uint32_t>(stored.size()));
    frame.push_back(static_cast<std::uint8_t>(used));
    frame.insert(frame.end(), stored.begin(), stored.end());
    putU64(frame, fnv1a64(frame.data(), frame.size()));
    return frame;
}

/** Outcome of parsing one segment's record region. */
struct SegmentParse
{
    std::vector<WalTickRecord> records;
    /** Set when the record region ended early (torn frame); names
     *  the damage for the tail-drop diagnostic. */
    std::string damage;
    std::size_t damageOffset = 0;
};

/**
 * Parse records from @p bytes starting after the header. Stops at
 * the first damaged frame and reports it; the caller decides whether
 * that is an error (sealed) or a drop point (tail).
 */
SegmentParse
parseRecords(const std::vector<std::uint8_t> &bytes,
             std::uint64_t first_record)
{
    SegmentParse out;
    std::size_t pos = kHeaderBytes;
    while (pos < bytes.size()) {
        const std::size_t frame_start = pos;
        const auto damaged = [&](const std::string &why) {
            out.damage = "record " +
                std::to_string(first_record + out.records.size()) +
                " at offset " + std::to_string(frame_start) + ": " +
                why;
            out.damageOffset = frame_start;
        };
        if (bytes.size() - pos < kFrameHeaderBytes) {
            damaged("truncated frame header");
            return out;
        }
        ByteReader head{bytes.data(), bytes.size(), pos};
        const std::uint32_t raw_size = head.u32();
        const std::uint32_t stored_size = head.u32();
        const std::uint8_t codec_id = head.u8();
        if (raw_size > kMaxRecordBytes ||
            stored_size > kMaxRecordBytes) {
            damaged("implausible frame size");
            return out;
        }
        if (codec_id > static_cast<std::uint8_t>(cache::Codec::Lz)) {
            damaged("unknown codec id " + std::to_string(codec_id));
            return out;
        }
        const std::size_t frame_size =
            kFrameHeaderBytes + stored_size + 8;
        if (bytes.size() - frame_start < frame_size) {
            damaged("truncated frame payload");
            return out;
        }
        const std::uint64_t want = fnv1a64(
            bytes.data() + frame_start, frame_size - 8);
        ByteReader sum{bytes.data(), bytes.size(),
                       frame_start + frame_size - 8};
        if (sum.u64() != want) {
            damaged("checksum mismatch");
            return out;
        }
        std::vector<std::uint8_t> raw;
        try {
            raw = decodeBlob(static_cast<cache::Codec>(codec_id),
                             bytes.data() + frame_start +
                                 kFrameHeaderBytes,
                             stored_size, raw_size);
            out.records.push_back(decodeRecord(raw));
        } catch (const std::exception &error) {
            // Checksummed-but-undecodable means real corruption that
            // happened before the checksum was computed — surface it
            // the same way so it is never replayed as data.
            damaged(std::string("undecodable payload: ") +
                    error.what());
            return out;
        }
        pos = frame_start + frame_size;
    }
    return out;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw WalIntegrityError("cannot open wal segment '" + path +
                                "'");
    const std::streamoff size = in.tellg();
    if (size < 0)
        throw WalIntegrityError("cannot size wal segment '" + path +
                                "'");
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    // A segment that shrinks under the reader must surface as damage,
    // never as zero-filled bytes that could parse.
    if (in.gcount() != size)
        throw WalIntegrityError(
            "short read of wal segment '" + path + "': got " +
            std::to_string(in.gcount()) + " of " +
            std::to_string(size) + " bytes");
    return bytes;
}

/** Throw naming @p path and errno unless the stdio call @p what
 *  succeeded — a lost write must never pass for a commit. */
void
requireIo(bool ok, const char *what, const std::string &path)
{
    if (ok)
        return;
    const int error = errno; // before any allocation can clobber it
    throw WalIntegrityError(std::string("cannot ") + what +
                            " wal segment '" + path + "': " +
                            std::strerror(error));
}

/** Closes a FILE on scope exit (error paths; success paths close
 *  explicitly so the result is checked). */
struct FileCloser
{
    void operator()(std::FILE *file) const { std::fclose(file); }
};

/** fwrite all of @p bytes to @p file or throw naming @p path. */
void
writeAll(std::FILE *file, const std::vector<std::uint8_t> &bytes,
         std::size_t n, const std::string &path)
{
    requireIo(std::fwrite(bytes.data(), 1, n, file) == n, "write",
              path);
}

/** Validate a segment header; throws naming the defect. */
std::uint64_t
checkHeader(const std::vector<std::uint8_t> &bytes,
            const std::string &path, std::uint64_t config_hash)
{
    if (bytes.size() < kHeaderBytes)
        throw WalIntegrityError("wal segment '" + path +
                                "' is shorter than its header");
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        throw WalIntegrityError("wal segment '" + path +
                                "' has bad magic");
    ByteReader in{bytes.data(), bytes.size(), 4};
    const std::uint32_t version = in.u32();
    if (version != kWalVersion)
        throw WalIntegrityError(
            "wal segment '" + path + "' has version " +
            std::to_string(version) + ", expected " +
            std::to_string(kWalVersion));
    const std::uint64_t hash = in.u64();
    if (hash != config_hash)
        throw WalIntegrityError(
            "wal segment '" + path +
            "' was written by a different server configuration "
            "(config hash mismatch)");
    return in.u64(); // first record index
}

} // namespace

bool
WalTickRecord::operator==(const WalTickRecord &other) const
{
    return period == other.period && admitted == other.admitted &&
        deferredOut == other.deferredOut &&
        offeredDelta == other.offeredDelta &&
        deferredDelta == other.deferredDelta &&
        rejectedDelta == other.rejectedDelta &&
        shedDelta == other.shedDelta &&
        totalOffered == other.totalOffered &&
        totalAdmitted == other.totalAdmitted &&
        totalDeferred == other.totalDeferred &&
        totalRejected == other.totalRejected &&
        bucketTokens[0] == other.bucketTokens[0] &&
        bucketTokens[1] == other.bucketTokens[1] &&
        bucketTokens[2] == other.bucketTokens[2] &&
        overloadLevel == other.overloadLevel;
}

std::vector<std::uint8_t>
encodeRecord(const WalTickRecord &record)
{
    std::vector<std::uint8_t> out;
    putU64(out, record.period);
    putBatches(out, record.admitted);
    putBatches(out, record.deferredOut);
    putU64(out, record.offeredDelta);
    putU64(out, record.deferredDelta);
    putU64(out, record.rejectedDelta);
    putU64(out, record.shedDelta);
    putU64(out, record.totalOffered);
    putU64(out, record.totalAdmitted);
    putU64(out, record.totalDeferred);
    putU64(out, record.totalRejected);
    for (std::uint64_t tokens : record.bucketTokens)
        putU64(out, tokens);
    putU32(out, record.overloadLevel);
    return out;
}

WalTickRecord
decodeRecord(const std::vector<std::uint8_t> &bytes)
{
    ByteReader in{bytes.data(), bytes.size(), 0};
    WalTickRecord record;
    record.period = in.u64();
    record.admitted = getBatches(in);
    record.deferredOut = getBatches(in);
    record.offeredDelta = in.u64();
    record.deferredDelta = in.u64();
    record.rejectedDelta = in.u64();
    record.shedDelta = in.u64();
    record.totalOffered = in.u64();
    record.totalAdmitted = in.u64();
    record.totalDeferred = in.u64();
    record.totalRejected = in.u64();
    for (std::uint64_t &tokens : record.bucketTokens)
        tokens = in.u64();
    record.overloadLevel = in.u32();
    if (in.pos != bytes.size())
        throw WalIntegrityError(
            "wal record has " +
            std::to_string(bytes.size() - in.pos) +
            " trailing bytes");
    return record;
}

std::string
segmentPath(const std::string &dir, std::uint64_t index, bool sealed)
{
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%06llu.%s",
                  static_cast<unsigned long long>(index),
                  sealed ? "seg" : "open");
    return (fs::path(dir) / name).string();
}

std::string
walDirError(const std::string &dir)
{
    std::error_code ec;
    const fs::file_status status = fs::status(dir, ec);
    if (fs::exists(status) && !fs::is_directory(status))
        return "'" + dir + "' exists and is not a directory";
    if (!fs::exists(status)) {
        fs::create_directories(dir, ec);
        if (ec)
            return "cannot create directory '" + dir +
                "': " + ec.message();
    }
    // Writability probe, same discipline as requireWritableFlagPath:
    // create-then-remove, never touching real segment names.
    const std::string probe =
        (fs::path(dir) / ".wal-probe.tmp").string();
    {
        std::ofstream out(probe, std::ios::trunc);
        if (!out.good())
            return "directory '" + dir + "' is not writable";
    }
    fs::remove(probe, ec);
    return "";
}

WalLoadResult
loadWal(const std::string &dir, std::uint64_t config_hash)
{
    FAIRCO2_COUNT("durability.wal.loads", 1);
    if (!fs::is_directory(dir))
        throw WalIntegrityError("wal directory '" + dir +
                                "' does not exist");

    std::map<std::uint64_t, std::string> sealed;
    std::map<std::uint64_t, std::string> open;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("wal-", 0) != 0)
            continue;
        const auto dot = name.find('.');
        if (dot == std::string::npos)
            continue;
        const std::string suffix = name.substr(dot + 1);
        std::uint64_t index = 0;
        try {
            index = std::stoull(name.substr(4, dot - 4));
        } catch (const std::exception &) {
            continue;
        }
        if (suffix == "seg")
            sealed[index] = entry.path().string();
        else if (suffix == "open")
            open[index] = entry.path().string();
    }
    if (open.size() > 1)
        throw WalIntegrityError(
            "wal directory '" + dir + "' has " +
            std::to_string(open.size()) +
            " open tail segments; expected at most one");

    WalLoadResult result;
    std::uint64_t expect_index = 1;
    for (const auto &[index, path] : sealed) {
        if (index != expect_index)
            throw WalIntegrityError(
                "wal directory '" + dir + "' skips from segment " +
                std::to_string(expect_index - 1) + " to " +
                std::to_string(index) + " (missing sealed segment)");
        const auto bytes = readFileBytes(path);
        const std::uint64_t first =
            checkHeader(bytes, path, config_hash);
        if (first != result.records.size())
            throw WalIntegrityError(
                "wal segment '" + path + "' starts at record " +
                std::to_string(first) + ", expected " +
                std::to_string(result.records.size()));
        SegmentParse parse = parseRecords(bytes, first);
        if (!parse.damage.empty())
            throw WalIntegrityError("sealed wal segment '" + path +
                                    "' is damaged: " + parse.damage);
        if (parse.records.empty())
            throw WalIntegrityError("sealed wal segment '" + path +
                                    "' holds no records");
        for (auto &record : parse.records)
            result.records.push_back(std::move(record));
        ++result.sealedSegments;
        ++expect_index;
    }

    result.nextSegmentIndex = expect_index;
    if (!open.empty()) {
        const auto &[index, path] = *open.begin();
        if (index != expect_index)
            throw WalIntegrityError(
                "wal tail segment '" + path + "' has index " +
                std::to_string(index) + ", expected " +
                std::to_string(expect_index));
        const auto bytes = readFileBytes(path);
        // A kill before the tail's first flush leaves fewer bytes
        // than a header: a torn tail with no records, not damage.
        if (bytes.size() < kHeaderBytes) {
            result.droppedTail = true;
            result.tailDiagnostic = "dropped torn wal tail of '" +
                path + "': " + std::to_string(bytes.size()) +
                " bytes, shorter than its header";
            return result;
        }
        const std::uint64_t first =
            checkHeader(bytes, path, config_hash);
        if (first != result.records.size())
            throw WalIntegrityError(
                "wal tail segment '" + path +
                "' starts at record " + std::to_string(first) +
                ", expected " +
                std::to_string(result.records.size()));
        SegmentParse parse = parseRecords(bytes, first);
        // The tail is the only place damage is survivable: keep the
        // valid prefix, drop the torn suffix, and say so.
        if (!parse.damage.empty()) {
            result.droppedTail = true;
            result.tailDiagnostic = "dropped torn wal tail of '" +
                path + "' from " + parse.damage;
        }
        result.tailRecords = parse.records.size();
        for (auto &record : parse.records)
            result.records.push_back(std::move(record));
    }
    return result;
}

WalWriter::WalWriter(const Options &options) : options_(options)
{
    if (options_.dir.empty())
        throw std::invalid_argument("WalWriter: empty directory");
    if (options_.segmentRecords == 0)
        throw std::invalid_argument(
            "WalWriter: segmentRecords must be >= 1");
    segmentIndex_ = options_.firstSegmentIndex;
    records_ = options_.firstRecordIndex;
    sealed_ = options_.firstSegmentIndex - 1;
}

WalWriter::~WalWriter()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
WalWriter::openSegment()
{
    path_ = segmentPath(options_.dir, segmentIndex_, false);
    file_ = std::fopen(path_.c_str(), "wb");
    requireIo(file_ != nullptr, "create", path_);
    const auto header = headerBytes(options_.configHash, records_);
    writeAll(file_, header, header.size(), path_);
    segmentRecords_ = 0;
}

void
WalWriter::writeFrame(const WalTickRecord &record, bool torn)
{
    if (file_ == nullptr)
        openSegment();
    std::uint64_t raw = 0;
    const auto frame = frameBytes(record, options_.codec, &raw);
    const std::size_t n = torn ? frame.size() / 2 : frame.size();
    writeAll(file_, frame, n, path_);
    // The group commit: one flush per arrival tick, so a kill after
    // this point can only lose ticks that never returned.
    requireIo(std::fflush(file_) == 0, "flush", path_);
    if (torn)
        return;
    rawBytes_ += raw;
    storedBytes_ += frame.size();
    ++records_;
    ++segmentRecords_;
    FAIRCO2_COUNT("durability.wal.appends", 1);
    if (segmentRecords_ >= options_.segmentRecords)
        seal();
}

void
WalWriter::append(const WalTickRecord &record)
{
    writeFrame(record, false);
}

void
WalWriter::appendTorn(const WalTickRecord &record)
{
    writeFrame(record, true);
}

void
WalWriter::seal()
{
    if (file_ == nullptr || segmentRecords_ == 0)
        return;
    const bool flushed = std::fflush(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    requireIo(flushed && closed, "close", path_);
    const std::string sealed_path =
        segmentPath(options_.dir, segmentIndex_, true);
    // The atomic seal: readers only ever see a complete .seg.
    std::error_code ec;
    fs::rename(path_, sealed_path, ec);
    if (ec)
        throw WalIntegrityError("cannot seal wal segment '" +
                                path_ + "': " + ec.message());
    ++segmentIndex_;
    ++sealed_;
    FAIRCO2_COUNT("durability.wal.seals", 1);
}

void
WalWriter::adoptTail(const std::vector<WalTickRecord> &records)
{
    if (file_ != nullptr || segmentRecords_ != 0 ||
        records_ != options_.firstRecordIndex)
        throw std::logic_error(
            "WalWriter::adoptTail: call before the first append");
    path_ = segmentPath(options_.dir, segmentIndex_, false);
    const std::string tmp_path = path_ + ".tmp";
    std::unique_ptr<std::FILE, FileCloser> tmp(
        std::fopen(tmp_path.c_str(), "wb"));
    requireIo(tmp != nullptr, "create", tmp_path);
    const auto header = headerBytes(options_.configHash, records_);
    writeAll(tmp.get(), header, header.size(), tmp_path);
    for (const WalTickRecord &record : records) {
        std::uint64_t raw = 0;
        const auto frame = frameBytes(record, options_.codec, &raw);
        writeAll(tmp.get(), frame, frame.size(), tmp_path);
        rawBytes_ += raw;
        storedBytes_ += frame.size();
    }
    requireIo(std::fflush(tmp.get()) == 0, "flush", tmp_path);
    requireIo(std::fclose(tmp.release()) == 0, "close", tmp_path);
    std::error_code ec;
    fs::rename(tmp_path, path_, ec);
    if (ec)
        throw WalIntegrityError("cannot rewrite wal tail '" +
                                path_ + "': " + ec.message());
    records_ += records.size();
    segmentRecords_ = records.size();
    file_ = std::fopen(path_.c_str(), "ab");
    requireIo(file_ != nullptr, "reopen", path_);
    // A fully repopulated tail seals exactly as a live append would
    // have, so recovery converges on the uninterrupted layout.
    if (segmentRecords_ >= options_.segmentRecords)
        seal();
}

std::uint64_t
windowSumDigest(std::uint64_t closed_periods,
                const std::vector<std::uint64_t> &sums)
{
    std::uint64_t hash =
        fnv1a64(&closed_periods, sizeof(closed_periods));
    for (std::uint64_t sum : sums)
        hash = fnv1a64(&sum, sizeof(sum), hash);
    return hash;
}

ScrubWindow
scrubWindow(std::span<const WalTickRecord> records,
            std::size_t window_periods, std::uint64_t watermark)
{
    ScrubWindow out;
    if (!records.empty()) {
        const std::uint64_t last_period = records.back().period;
        if (last_period + 1 > watermark)
            out.closed = last_period + 1 - watermark;
    }
    out.periods = std::min<std::uint64_t>(window_periods, out.closed);
    out.first = out.closed - out.periods;
    return out;
}

WindowDigests
deriveWindowDigests(
    std::span<const WalTickRecord> records, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf)
{
    const ScrubWindow window =
        scrubWindow(records, window_periods, watermark);
    // Records up to window.first cannot cover an in-window period
    // (see the header), so only the suffix after them is scanned.
    const std::span<const WalTickRecord> reaching(
        std::partition_point(records.begin(), records.end(),
                             [&window](const WalTickRecord &record) {
                                 return record.period <= window.first;
                             }),
        records.end());

    // Accumulate per-period unit sums for the in-window closed
    // periods only — the exact quantities the live replicas keep in
    // their windowUnitSums deques. One chunk per shard: each chunk
    // scans the reaching records and sums only its own shard's
    // batches, so the writes are disjoint and every slot sees its
    // batches in log order whatever the thread count.
    std::vector<std::vector<std::uint64_t>> shard_sums(
        shards, std::vector<std::uint64_t>(window.periods, 0));
    parallel::parallelFor(0, shards, 1, [&](std::size_t lo,
                                            std::size_t hi) {
        for (const WalTickRecord &record : reaching) {
            for (const WalBatch &batch : record.admitted) {
                const std::size_t s = batch.tenant % shards;
                if (s < lo || s >= hi)
                    continue;
                for (std::uint32_t p = 0; p < batch.coveredPeriods;
                     ++p) {
                    const std::uint64_t covered =
                        batch.period - batch.coveredPeriods + p;
                    if (covered < window.first ||
                        covered >= window.first + window.periods)
                        continue;
                    shard_sums[s][covered - window.first] +=
                        unitsOf(batch.tenant, covered);
                }
            }
        }
    });

    // The fleet slots are the integer sum over shards — associative,
    // so the same for any shard count and any thread count.
    std::vector<std::uint64_t> fleet(window.periods, 0);
    for (const std::vector<std::uint64_t> &sums : shard_sums)
        for (std::size_t i = 0; i < sums.size(); ++i)
            fleet[i] += sums[i];
    WindowDigests out;
    out.fleet = windowSumDigest(window.closed, fleet);
    out.shard.reserve(shards);
    for (const std::vector<std::uint64_t> &sums : shard_sums)
        out.shard.push_back(windowSumDigest(window.closed, sums));
    return out;
}

} // namespace fairco2::durability
