#include "durability/wal.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
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

/** Read @p n bytes at @p offset of @p in into @p out, or throw: a
 *  segment that shrinks under the reader must surface as damage,
 *  never as zero-filled bytes that could parse. */
void
readAt(std::ifstream &in, std::size_t offset, std::uint8_t *out,
       std::size_t n, const std::string &path)
{
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char *>(out),
            static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n)
        throw WalIntegrityError(
            "short read of wal segment '" + path + "': got " +
            std::to_string(in.gcount()) + " of " + std::to_string(n) +
            " bytes at offset " + std::to_string(offset));
}

/** A frame's header fields; size 0 means the frame cannot be
 *  whole. */
struct FrameHead
{
    std::uint32_t rawSize = 0;
    std::uint32_t storedSize = 0;
    std::uint8_t codec = 0;
    std::size_t size = 0; //!< header + payload + checksum
};

/** Parse the frame header at @p head, @p available bytes before the
 *  end of the segment; on damage, size is 0 and @p why names it. */
FrameHead
frameHead(const std::uint8_t *head, std::size_t available,
          std::string &why)
{
    FrameHead out;
    if (available < kFrameHeaderBytes) {
        why = "truncated frame header";
        return out;
    }
    ByteReader in{head, kFrameHeaderBytes};
    out.rawSize = in.u32();
    out.storedSize = in.u32();
    out.codec = in.u8();
    if (out.rawSize > kMaxRecordBytes ||
        out.storedSize > kMaxRecordBytes) {
        why = "implausible frame size";
        return out;
    }
    const std::size_t size = kFrameHeaderBytes + out.storedSize + 8;
    if (available < size) {
        why = "truncated frame payload";
        return out;
    }
    out.size = size;
    return out;
}

/** One segment as read from disk. */
struct SegmentRead
{
    std::uint64_t first = 0;  //!< the header's first record index
    std::uint64_t frames = 0; //!< whole frames stepped over or decoded
    /** The decoded frames: records `first + frames - records.size()`
     *  on. */
    std::vector<WalTickRecord> records;
    /** Set when the frames end early (a torn or damaged frame, or a
     *  file shorter than its header); names the damage. */
    std::string damage;
};

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

/** The first record index in the checked header of the segment at
 *  @p path; nullopt when the file is shorter than a header. */
std::optional<std::uint64_t>
headerFirstRecord(const std::string &path, std::uint64_t config_hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw WalIntegrityError("cannot open wal segment '" + path +
                                "'");
    std::vector<std::uint8_t> header(kHeaderBytes);
    in.read(reinterpret_cast<char *>(header.data()), kHeaderBytes);
    if (static_cast<std::size_t>(in.gcount()) < kHeaderBytes)
        return std::nullopt;
    return checkHeader(header, path, config_hash);
}

/**
 * Read the segment at @p path: check its header, step over the
 * frames before record @p from by their length fields alone, then
 * checksum and decode the rest. Stops at the first damaged frame and
 * reports it; the caller decides whether that is an error (sealed)
 * or a drop point (tail). Returns false, having read nothing, when
 * the file is shorter than a header.
 */
bool
readSegment(const std::string &path, std::uint64_t config_hash,
            std::uint64_t from, SegmentRead &out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw WalIntegrityError("cannot open wal segment '" + path +
                                "'");
    const std::streamoff end = in.tellg();
    if (end < 0)
        throw WalIntegrityError("cannot size wal segment '" + path +
                                "'");
    const std::size_t size = static_cast<std::size_t>(end);
    if (size < kHeaderBytes) {
        out.damage = std::to_string(size) +
            " bytes, shorter than its header";
        return false;
    }
    std::vector<std::uint8_t> bytes(kHeaderBytes);
    readAt(in, 0, bytes.data(), kHeaderBytes, path);
    out.first = checkHeader(bytes, path, config_hash);

    std::string why;
    const auto damaged = [&](std::size_t offset) {
        out.damage = "record " + std::to_string(out.first + out.frames) +
            " at offset " + std::to_string(offset) + ": " + why;
        return true;
    };
    // The frames before `from`: only their length fields are read.
    std::size_t pos = kHeaderBytes;
    std::uint8_t head[kFrameHeaderBytes];
    while (out.first + out.frames < from && pos < size) {
        readAt(in, pos, head, std::min(kFrameHeaderBytes, size - pos),
               path);
        const FrameHead frame = frameHead(head, size - pos, why);
        if (frame.size == 0)
            return damaged(pos);
        pos += frame.size;
        ++out.frames;
    }

    bytes.resize(size - pos);
    readAt(in, pos, bytes.data(), bytes.size(), path);
    for (std::size_t at = 0; at < bytes.size();) {
        const std::uint8_t *data = bytes.data() + at;
        const FrameHead frame = frameHead(data, bytes.size() - at, why);
        if (frame.size == 0)
            return damaged(pos + at);
        if (frame.codec > static_cast<std::uint8_t>(cache::Codec::Lz)) {
            why = "unknown codec id " + std::to_string(frame.codec);
            return damaged(pos + at);
        }
        ByteReader sum{data, frame.size, frame.size - 8};
        if (sum.u64() != fnv1a64(data, frame.size - 8)) {
            why = "checksum mismatch";
            return damaged(pos + at);
        }
        try {
            out.records.push_back(decodeRecord(decodeBlob(
                static_cast<cache::Codec>(frame.codec),
                data + kFrameHeaderBytes, frame.storedSize,
                frame.rawSize)));
        } catch (const std::exception &error) {
            // Checksummed-but-undecodable means real corruption that
            // happened before the checksum was computed — surface it
            // the same way so it is never replayed as data.
            why = std::string("undecodable payload: ") + error.what();
            return damaged(pos + at);
        }
        at += frame.size;
        ++out.frames;
    }
    return true;
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
loadWal(const std::string &dir, std::uint64_t config_hash,
        std::uint64_t from_record)
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
        if (suffix != "seg" && suffix != "open")
            continue;
        // The whole index must be digits: a stray copy such as
        // "wal-000001 (copy).seg" must not shadow segment 1.
        const char *digits = name.data() + 4;
        const char *digits_end = name.data() + dot;
        std::uint64_t index = 0;
        const auto [parsed, error] =
            std::from_chars(digits, digits_end, index);
        if (digits == digits_end || error != std::errc() ||
            parsed != digits_end)
            throw WalIntegrityError(
                "wal directory '" + dir + "' holds '" + name +
                "', whose segment index is not a number");
        auto &segments = suffix == "seg" ? sealed : open;
        const auto [slot, fresh] =
            segments.emplace(index, entry.path().string());
        if (!fresh)
            throw WalIntegrityError(
                "wal directory '" + dir + "' holds two segments "
                "with index " + std::to_string(index) + ": '" +
                slot->second + "' and '" + entry.path().string() +
                "'");
    }
    if (open.size() > 1)
        throw WalIntegrityError(
            "wal directory '" + dir + "' has " +
            std::to_string(open.size()) +
            " open tail segments; expected at most one");

    WalLoadResult result;
    std::uint64_t expect_index = 1;
    for (const auto &entry : sealed) {
        if (entry.first != expect_index)
            throw WalIntegrityError(
                "wal directory '" + dir + "' skips from segment " +
                std::to_string(expect_index - 1) + " to " +
                std::to_string(entry.first) +
                " (missing sealed segment)");
        ++expect_index;
    }
    result.sealedSegments = sealed.size();
    result.nextSegmentIndex = expect_index;
    if (!open.empty() && open.begin()->first != expect_index)
        throw WalIntegrityError(
            "wal tail segment '" + open.begin()->second +
            "' has index " + std::to_string(open.begin()->first) +
            ", expected " + std::to_string(expect_index));

    // The log in order: sealed segments, then the tail. Headers are
    // read newest first down to the segment holding from_record; the
    // segments older than it are never opened.
    std::vector<std::pair<std::uint64_t, std::string>> log(
        sealed.begin(), sealed.end());
    log.insert(log.end(), open.begin(), open.end());
    std::size_t start = log.size();
    while (start > 0) {
        --start;
        const std::optional<std::uint64_t> first =
            headerFirstRecord(log[start].second, config_hash);
        if (first && *first <= from_record)
            break;
    }

    // Then read them oldest first, each one chaining into the next.
    std::uint64_t end = 0; // one past the last record read
    for (std::size_t i = start; i < log.size(); ++i) {
        const auto &[index, path] = log[i];
        const bool tail = !open.empty() && i + 1 == log.size();
        SegmentRead segment;
        const bool whole =
            readSegment(path, config_hash, from_record, segment);
        if (tail) {
            // The tail is the only place damage is survivable: keep
            // the valid prefix, drop the torn suffix, and say so. A
            // kill before its first flush leaves fewer bytes than a
            // header: a torn tail with no records, not damage.
            if (!segment.damage.empty()) {
                result.droppedTail = true;
                result.tailDiagnostic = "dropped torn wal tail of '" +
                    path + (whole ? "' from " : "': ") + segment.damage;
            }
            if (!whole)
                break;
            result.tailRecords = segment.records.size();
        } else {
            if (!whole)
                throw WalIntegrityError("wal segment '" + path +
                                        "' is shorter than its header");
            if (!segment.damage.empty())
                throw WalIntegrityError("sealed wal segment '" + path +
                                        "' is damaged: " +
                                        segment.damage);
            if (segment.frames == 0)
                throw WalIntegrityError("sealed wal segment '" + path +
                                        "' holds no records");
        }
        if ((i > start || index == 1) && segment.first != end)
            throw WalIntegrityError(
                "wal segment '" + path + "' starts at record " +
                std::to_string(segment.first) + ", expected " +
                std::to_string(end));
        end = segment.first + segment.frames;
        for (WalTickRecord &record : segment.records)
            result.records.push_back(std::move(record));
    }
    if (from_record > end)
        throw WalIntegrityError(
            "wal directory '" + dir + "' holds " + std::to_string(end) +
            " records; cannot load from record " +
            std::to_string(from_record));
    FAIRCO2_COUNT("durability.wal.frames_read", result.records.size());
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

void
ScrubLog::extend(std::uint64_t end, std::span<WalTickRecord> recovered)
{
    for (; next_ < std::min<std::uint64_t>(end, recovered.size());
         ++next_)
        records_.push_back(std::move(recovered[next_]));
    if (next_ >= end)
        return;
    WalLoadResult load = loadWal(dir_, configHash_, next_);
    if (load.droppedTail)
        throw WalIntegrityError(
            "scrub found damage in committed wal frames (" +
            load.tailDiagnostic + ")");
    if (load.records.size() < end - next_)
        throw WalIntegrityError(
            "wal directory '" + dir_ + "' holds " +
            std::to_string(next_ + load.records.size()) +
            " records; the scrub expected " + std::to_string(end));
    for (std::uint64_t i = 0; i < end - next_; ++i)
        records_.push_back(std::move(load.records[i]));
    next_ = end;
}

void
ScrubLog::dropThrough(std::uint64_t first_period)
{
    records_.erase(records_.begin(),
                   std::partition_point(
                       records_.begin(), records_.end(),
                       [first_period](const WalTickRecord &record) {
                           return record.period <= first_period;
                       }));
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
deriveWindowDigests(std::span<const WalTickRecord> records,
                    std::size_t shards, std::size_t window_periods,
                    std::uint64_t watermark, const PeriodUnits &unitsOf)
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
    // their windowUnitSums deques — in one pass over the reaching
    // batches: one chunk per record, each summing into its own
    // (shard, period) partials. A batch covers
    // [period - coveredPeriods, period); its in-window pairs queue in
    // their (shard, period) slot and go to unitsOf a run at a time.
    // The sums are integers, so folding the partials gives the same
    // digests for any grouping, chunking and thread count.
    const std::uint64_t window_end = window.first + window.periods;
    const std::size_t slots = shards * window.periods;
    const std::vector<std::uint64_t> sums = parallel::parallelMapReduce(
        0, window.periods == 0 ? 0 : reaching.size(), 1,
        std::vector<std::uint64_t>(slots, 0),
        [&](std::size_t lo, std::size_t hi) {
            std::vector<std::uint64_t> partial(slots, 0);
            std::vector<std::vector<std::uint64_t>> queued(slots);
            [[maybe_unused]] std::uint64_t pairs = 0;
            const auto flush = [&](std::size_t slot) {
                std::vector<std::uint64_t> &tenants = queued[slot];
                partial[slot] +=
                    unitsOf(window.first + slot % window.periods, tenants);
                pairs += tenants.size();
                tenants.clear();
            };
            for (std::size_t r = lo; r < hi; ++r) {
                for (const WalBatch &batch : reaching[r].admitted) {
                    const std::size_t slot =
                        (batch.tenant % shards) * window.periods;
                    for (std::uint32_t p = 0; p < batch.coveredPeriods;
                         ++p) {
                        const std::uint64_t covered =
                            batch.period - batch.coveredPeriods + p;
                        if (covered < window.first ||
                            covered >= window_end)
                            continue;
                        const std::size_t at =
                            slot + (covered - window.first);
                        queued[at].push_back(batch.tenant);
                        if (queued[at].size() == kDeriveBatch)
                            flush(at);
                    }
                }
            }
            for (std::size_t at = 0; at < slots; ++at)
                if (!queued[at].empty())
                    flush(at);
            FAIRCO2_COUNT("durability.scrub.pairs_derived", pairs);
            return partial;
        },
        [](std::vector<std::uint64_t> &total,
           const std::vector<std::uint64_t> &partial) {
            for (std::size_t i = 0; i < total.size(); ++i)
                total[i] += partial[i];
        });

    // The fleet slots are the integer sum over shards — associative,
    // so the same for any shard count and any thread count.
    std::vector<std::uint64_t> fleet(window.periods, 0);
    WindowDigests out;
    out.shard.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        const auto first =
            sums.begin() + static_cast<std::ptrdiff_t>(s * window.periods);
        const std::vector<std::uint64_t> shard(
            first, first + static_cast<std::ptrdiff_t>(window.periods));
        for (std::size_t i = 0; i < shard.size(); ++i)
            fleet[i] += shard[i];
        out.shard.push_back(windowSumDigest(window.closed, shard));
    }
    out.fleet = windowSumDigest(window.closed, fleet);
    return out;
}

WindowDigests
deriveWindowDigests(
    std::span<const WalTickRecord> records, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf)
{
    return deriveWindowDigests(
        records, shards, window_periods, watermark,
        PeriodUnits([&unitsOf](std::uint64_t period,
                               std::span<const std::uint64_t> tenants) {
            std::uint64_t units = 0;
            for (std::uint64_t tenant : tenants)
                units += unitsOf(tenant, period);
            return units;
        }));
}

} // namespace fairco2::durability
