#include "resilience/checkpoint.hh"

#include <cstdio>
#include <fstream>

#include "cache/compr_api.hh"

namespace fairco2::resilience
{

namespace
{

constexpr char kMagic[4] = {'F', 'C', '2', 'K'};
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + 5 * sizeof(std::uint64_t);
// v2 inserts a u32 codec id after the version and a u64
// stored-payload size after record_bytes.
constexpr std::size_t kHeaderBytesV2 =
    kHeaderBytes + sizeof(std::uint32_t) + sizeof(std::uint64_t);

std::uint32_t
codecId(cache::Codec codec)
{
    return codec == cache::Codec::Lz ? 1u : 0u;
}

void
appendBytes(std::vector<std::uint8_t> &out, const void *data,
            std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    out.insert(out.end(), bytes, bytes + size);
}

std::uint64_t
readU64(const std::uint8_t *data)
{
    std::uint64_t value = 0;
    std::memcpy(&value, data, sizeof(value));
    return value;
}

} // namespace

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t hash)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t
hashField(std::uint64_t hash, std::uint64_t value)
{
    return fnv1a64(&value, sizeof(value), hash);
}

std::uint64_t
hashField(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return hashField(hash, bits);
}

std::uint64_t
checkpointFingerprint(const Rng &base)
{
    return base.fork(kFingerprintStream).next();
}

namespace detail
{

CheckpointImage
readCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CheckpointError("cannot read checkpoint file: " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throw CheckpointError("cannot read checkpoint file: " + path);

    if (bytes.size() < kHeaderBytes + sizeof(std::uint64_t))
        throw CheckpointError("truncated checkpoint: " + path);
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw CheckpointError("not a checkpoint file: " + path);

    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(kMagic),
                sizeof(version));
    if (version != kCheckpointVersion &&
        version != kCheckpointVersionCompressed)
        throw CheckpointError(
            "unsupported checkpoint version " +
            std::to_string(version) + " (expected " +
            std::to_string(kCheckpointVersion) + " or " +
            std::to_string(kCheckpointVersionCompressed) + "): " +
            path);
    const bool compressed = version == kCheckpointVersionCompressed;
    const std::size_t header_bytes =
        compressed ? kHeaderBytesV2 : kHeaderBytes;
    if (bytes.size() < header_bytes + sizeof(std::uint64_t))
        throw CheckpointError("truncated checkpoint: " + path);

    const std::uint8_t *cursor =
        bytes.data() + sizeof(kMagic) + sizeof(version);
    CheckpointImage image;
    if (compressed) {
        std::uint32_t codec_id = 0;
        std::memcpy(&codec_id, cursor, sizeof(codec_id));
        cursor += sizeof(codec_id);
        if (codec_id == 0)
            image.codec = cache::Codec::Identity;
        else if (codec_id == 1)
            image.codec = cache::Codec::Lz;
        else
            throw CheckpointError("unknown checkpoint codec id " +
                                  std::to_string(codec_id) + ": " +
                                  path);
    }
    image.fingerprint = readU64(cursor);
    image.configHash = readU64(cursor + 8);
    image.trials = readU64(cursor + 16);
    image.chunkTrials = readU64(cursor + 24);
    image.recordBytes = readU64(cursor + 32);

    // The header's sizes are untrusted: every one is formed without
    // wrapping, and the decoded payload is bounded by what the file's
    // stored bytes can expand to before anything is allocated.
    const auto corrupt_header = [&path](const std::string &why) {
        return CheckpointError("corrupt checkpoint header (" + why +
                               "): " + path);
    };
    if (image.trials == 0 || image.chunkTrials == 0 ||
        image.recordBytes == 0)
        throw corrupt_header("zero size field");
    const std::uint64_t chunks =
        (image.trials - 1) / image.chunkTrials + 1;
    const std::uint64_t bitmap_bytes = chunks / 8 + (chunks % 8 != 0);
    std::uint64_t payload_bytes = 0;
    if (__builtin_mul_overflow(image.trials, image.recordBytes,
                               &payload_bytes))
        throw corrupt_header("trials x record bytes overflows");
    const std::uint64_t stored_payload_bytes =
        compressed ? readU64(cursor + 40) : payload_bytes;
    std::uint64_t expected = header_bytes + sizeof(std::uint64_t);
    if (__builtin_add_overflow(expected, bitmap_bytes, &expected) ||
        __builtin_add_overflow(expected, stored_payload_bytes,
                               &expected) ||
        bytes.size() != expected)
        throw CheckpointError("truncated checkpoint: " + path);
    // stored_payload_bytes now fits in the file, so this cannot wrap.
    const std::uint64_t max_expansion =
        image.codec == cache::Codec::Lz ? cache::LzCompr::kMaxExpansion
                                        : 1;
    if (payload_bytes > stored_payload_bytes * max_expansion)
        throw corrupt_header(std::to_string(payload_bytes) +
                             " payload bytes cannot decode from " +
                             std::to_string(stored_payload_bytes) +
                             " stored bytes");

    const std::uint64_t stored =
        readU64(bytes.data() + bytes.size() - sizeof(std::uint64_t));
    const std::uint64_t actual =
        fnv1a64(bytes.data(), bytes.size() - sizeof(std::uint64_t));
    if (stored != actual)
        throw CheckpointError("checkpoint checksum mismatch: " + path);

    const std::uint8_t *body = bytes.data() + header_bytes;
    image.bitmap.assign(body, body + bitmap_bytes);
    const std::uint8_t *stored_payload = body + bitmap_bytes;
    if (!compressed) {
        image.payload.assign(stored_payload,
                             stored_payload + payload_bytes);
        return image;
    }
    image.payload.resize(payload_bytes);
    try {
        if (image.codec == cache::Codec::Lz)
            cache::LzCompr::decompress(
                stored_payload, stored_payload_bytes,
                image.payload.data(), payload_bytes);
        else
            cache::IdentityCompr::decompress(
                stored_payload, stored_payload_bytes,
                image.payload.data(), payload_bytes);
    } catch (const cache::CorruptBlockError &e) {
        throw CheckpointError(
            std::string("checkpoint payload does not decompress (") +
            e.what() + "): " + path);
    }
    return image;
}

void
writeCheckpointFile(const std::string &path,
                    const CheckpointImage &image)
{
    // Identity keeps emitting the exact v1 byte stream; only a real
    // compressor switches the file to v2.
    const bool compressed = image.codec != cache::Codec::Identity;
    std::vector<std::uint8_t> stored_payload;
    if (compressed)
        stored_payload = cache::LzCompr::compress(
            image.payload.data(), image.payload.size());

    std::vector<std::uint8_t> bytes;
    bytes.reserve((compressed ? kHeaderBytesV2 : kHeaderBytes) +
                  image.bitmap.size() +
                  (compressed ? stored_payload.size()
                              : image.payload.size()) +
                  sizeof(std::uint64_t));
    appendBytes(bytes, kMagic, sizeof(kMagic));
    const std::uint32_t version = compressed
        ? kCheckpointVersionCompressed
        : kCheckpointVersion;
    appendBytes(bytes, &version, sizeof(version));
    if (compressed) {
        const std::uint32_t codec_id = codecId(image.codec);
        appendBytes(bytes, &codec_id, sizeof(codec_id));
    }
    appendBytes(bytes, &image.fingerprint, sizeof(std::uint64_t));
    appendBytes(bytes, &image.configHash, sizeof(std::uint64_t));
    appendBytes(bytes, &image.trials, sizeof(std::uint64_t));
    appendBytes(bytes, &image.chunkTrials, sizeof(std::uint64_t));
    appendBytes(bytes, &image.recordBytes, sizeof(std::uint64_t));
    if (compressed) {
        const std::uint64_t stored_payload_bytes =
            stored_payload.size();
        appendBytes(bytes, &stored_payload_bytes,
                    sizeof(stored_payload_bytes));
    }
    appendBytes(bytes, image.bitmap.data(), image.bitmap.size());
    if (compressed)
        appendBytes(bytes, stored_payload.data(),
                    stored_payload.size());
    else
        appendBytes(bytes, image.payload.data(),
                    image.payload.size());
    const std::uint64_t checksum =
        fnv1a64(bytes.data(), bytes.size());
    appendBytes(bytes, &checksum, sizeof(checksum));

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw CheckpointError("cannot write checkpoint file: " +
                                  tmp);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            throw CheckpointError("cannot write checkpoint file: " +
                                  tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw CheckpointError("cannot replace checkpoint file: " +
                              path);
}

void
validateCheckpoint(const CheckpointImage &image,
                   const std::string &path, std::uint64_t fingerprint,
                   std::uint64_t config_hash, std::uint64_t trials,
                   std::uint64_t chunk_trials,
                   std::uint64_t record_bytes)
{
    if (image.fingerprint != fingerprint)
        throw CheckpointError(
            "checkpoint seed fingerprint does not match this run: " +
            path);
    if (image.configHash != config_hash)
        throw CheckpointError(
            "checkpoint configuration does not match this run: " +
            path);
    if (image.trials != trials)
        throw CheckpointError(
            "checkpoint trial count " +
            std::to_string(image.trials) + " does not match " +
            std::to_string(trials) + ": " + path);
    if (image.chunkTrials != chunk_trials)
        throw CheckpointError(
            "checkpoint chunk size " +
            std::to_string(image.chunkTrials) + " does not match " +
            std::to_string(chunk_trials) + ": " + path);
    if (image.recordBytes != record_bytes)
        throw CheckpointError(
            "checkpoint record size " +
            std::to_string(image.recordBytes) + " does not match " +
            std::to_string(record_bytes) + ": " + path);
}

} // namespace detail

} // namespace fairco2::resilience
