/**
 * @file
 * LzCompr implementation: per-block transform selection in front of
 * a deterministic greedy LZSS coder.
 *
 * The WAL and checkpoint payloads are fixed-width 8-byte words
 * (u64 indices and counts, IEEE doubles). No single byte transform
 * wins on both kinds: a word-wise XOR-delta plus byte-plane shuffle
 * turns small-integer runs into long zero runs, but it destroys the
 * exact 8-byte duplicates that dominate the redundancy of double
 * runs. So the encoder tries three reversible
 * pipelines — plain, XOR-delta, and XOR-delta + byte-plane shuffle —
 * LZSS-codes each, and keeps the smallest, spending one mode byte up
 * front. Ties resolve to the lowest mode, so encoding stays
 * deterministic.
 *
 * Token format after the mode byte: a control byte carries 8 flags
 * (LSB first); flag 0 is a literal byte, flag 1 is a match token
 * with a 12-bit backward offset (1-based) and a 4-bit length code —
 * codes 0..14 mean lengths 3..17, code 15 adds one extension byte
 * for lengths 18..273. The encoder zeroes the unused high flags of
 * the final control byte and the decoder rejects unknown modes,
 * nonzero unused flags, trailing input, and out-of-range tokens, so
 * every stored bit is semantically live.
 */

#include "cache/compr_api.hh"

#include <algorithm>
#include <stdexcept>

namespace fairco2::cache
{

const char *
codecName(Codec codec)
{
    return codec == Codec::Identity ? IdentityCompr::kName
                                    : LzCompr::kName;
}

Codec
parseCodec(const std::string &name)
{
    if (name == IdentityCompr::kName)
        return Codec::Identity;
    if (name == LzCompr::kName)
        return Codec::Lz;
    throw std::invalid_argument("unknown cache codec '" + name +
                                "' (valid: identity, lz)");
}

namespace
{

constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxShortMatch = 17; // length codes 0..14
constexpr std::size_t kMaxMatch = 273;     // code 15 + extension byte
// The longest match costs 3 stored bytes; LzCompr::kMaxExpansion
// must cover it.
static_assert(kMaxMatch <= 3 * LzCompr::kMaxExpansion);
constexpr std::size_t kWindow = 4095;      // 12-bit backward offset
constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kWordBytes = 8;

/** Reversible pre-LZSS byte transforms, recorded in the mode byte. */
enum class Transform : std::uint8_t
{
    Plain = 0,        //!< identity — keeps 8-byte duplicates intact
    Delta = 1,        //!< word-wise XOR-delta
    DeltaShuffle = 2, //!< XOR-delta, then byte-plane transpose
};

constexpr std::uint8_t kMaxTransform = 2;

inline std::uint32_t
hash3(const std::uint8_t *p)
{
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - kHashBits);
}

/** Forward XOR-delta over full 8-byte words; the tail (size % 8)
 *  passes through untouched. Reads only from @p data, so the output
 *  word w is data[w] ^ data[w-1] of the original bytes. */
std::vector<std::uint8_t>
xorDelta(const std::uint8_t *data, std::size_t size)
{
    std::vector<std::uint8_t> out(data, data + size);
    const std::size_t words = size / kWordBytes;
    for (std::size_t w = 1; w < words; ++w)
        for (std::size_t b = 0; b < kWordBytes; ++b)
            out[w * kWordBytes + b] = static_cast<std::uint8_t>(
                data[w * kWordBytes + b] ^
                data[(w - 1) * kWordBytes + b]);
    return out;
}

/** In-place inverse of xorDelta: each word XORs the already-restored
 *  previous word, front to back. */
void
unXorDelta(std::uint8_t *data, std::size_t size)
{
    const std::size_t words = size / kWordBytes;
    for (std::size_t w = 1; w < words; ++w)
        for (std::size_t b = 0; b < kWordBytes; ++b)
            data[w * kWordBytes + b] = static_cast<std::uint8_t>(
                data[w * kWordBytes + b] ^
                data[(w - 1) * kWordBytes + b]);
}

/** Byte-plane transpose over the word-aligned prefix: byte b of
 *  every word becomes one contiguous plane, so the near-zero high
 *  bytes the XOR-delta produces turn into long runs the LZSS stage
 *  can fold. The tail (size % 8) stays in place. */
std::vector<std::uint8_t>
shuffleBytes(const std::vector<std::uint8_t> &in)
{
    const std::size_t words = in.size() / kWordBytes;
    std::vector<std::uint8_t> out(in.size());
    for (std::size_t b = 0; b < kWordBytes; ++b)
        for (std::size_t w = 0; w < words; ++w)
            out[b * words + w] = in[w * kWordBytes + b];
    std::copy(in.begin() +
                  static_cast<std::ptrdiff_t>(words * kWordBytes),
              in.end(),
              out.begin() +
                  static_cast<std::ptrdiff_t>(words * kWordBytes));
    return out;
}

/** In-place inverse of shuffleBytes. */
void
unshuffleBytes(std::uint8_t *data, std::size_t size)
{
    const std::size_t words = size / kWordBytes;
    const std::vector<std::uint8_t> planes(
        data, data + words * kWordBytes);
    for (std::size_t b = 0; b < kWordBytes; ++b)
        for (std::size_t w = 0; w < words; ++w)
            data[w * kWordBytes + b] = planes[b * words + w];
}

/** Greedy single-candidate LZSS over the transformed bytes. */
std::vector<std::uint8_t>
lzssEncode(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    out.reserve(in.size() + in.size() / 8 + 2);

    // One candidate per 3-byte hash keeps the coder deterministic
    // and O(n); -1 marks an empty slot.
    std::vector<std::int64_t> head(kHashSize, -1);

    std::size_t ctrl_pos = 0;
    int bit = 8; // 8 forces a fresh control byte on the first token
    auto begin_token = [&](bool is_match) {
        if (bit == 8) {
            ctrl_pos = out.size();
            out.push_back(0);
            bit = 0;
        }
        if (is_match)
            out[ctrl_pos] =
                static_cast<std::uint8_t>(out[ctrl_pos] | (1u << bit));
        ++bit;
    };

    std::size_t i = 0;
    while (i < in.size()) {
        std::size_t best_len = 0;
        std::size_t best_off = 0;
        if (i + kMinMatch <= in.size()) {
            const std::int64_t cand =
                head[hash3(&in[i])];
            if (cand >= 0 &&
                i - static_cast<std::size_t>(cand) <= kWindow) {
                const std::size_t from =
                    static_cast<std::size_t>(cand);
                const std::size_t cap =
                    std::min(kMaxMatch, in.size() - i);
                std::size_t len = 0;
                while (len < cap && in[from + len] == in[i + len])
                    ++len;
                if (len >= kMinMatch) {
                    best_len = len;
                    best_off = i - from;
                }
            }
        }
        if (best_len > 0) {
            begin_token(true);
            out.push_back(
                static_cast<std::uint8_t>(best_off & 0xff));
            const std::size_t code =
                std::min(best_len, kMaxShortMatch + 1) - kMinMatch;
            out.push_back(static_cast<std::uint8_t>(
                ((best_off >> 8) & 0x0f) | (code << 4)));
            if (best_len > kMaxShortMatch)
                out.push_back(static_cast<std::uint8_t>(
                    best_len - kMaxShortMatch - 1));
            for (std::size_t k = 0;
                 k < best_len && i + k + kMinMatch <= in.size(); ++k)
                head[hash3(&in[i + k])] =
                    static_cast<std::int64_t>(i + k);
            i += best_len;
        } else {
            begin_token(false);
            if (i + kMinMatch <= in.size())
                head[hash3(&in[i])] = static_cast<std::int64_t>(i);
            out.push_back(in[i]);
            ++i;
        }
    }
    return out;
}

} // namespace

std::vector<std::uint8_t>
LzCompr::compress(const std::uint8_t *data, std::size_t size)
{
    std::vector<std::uint8_t> best;
    std::uint8_t best_mode = 0;
    for (std::uint8_t mode = 0; mode <= kMaxTransform; ++mode) {
        std::vector<std::uint8_t> transformed;
        switch (static_cast<Transform>(mode)) {
        case Transform::Plain:
            transformed.assign(data, data + size);
            break;
        case Transform::Delta:
            transformed = xorDelta(data, size);
            break;
        case Transform::DeltaShuffle:
            transformed = shuffleBytes(xorDelta(data, size));
            break;
        }
        std::vector<std::uint8_t> coded = lzssEncode(transformed);
        if (mode == 0 || coded.size() < best.size()) {
            best = std::move(coded);
            best_mode = mode;
        }
    }
    std::vector<std::uint8_t> out;
    out.reserve(best.size() + 1);
    out.push_back(best_mode);
    out.insert(out.end(), best.begin(), best.end());
    return out;
}

void
LzCompr::decompress(const std::uint8_t *data, std::size_t size,
                    std::uint8_t *out, std::size_t raw_size)
{
    if (size == 0)
        throw CorruptBlockError("lz block is empty (mode byte "
                                "missing)");
    const std::uint8_t mode = data[0];
    if (mode > kMaxTransform)
        throw CorruptBlockError("lz block has unknown transform "
                                "mode " + std::to_string(mode));
    std::size_t ip = 1;
    std::size_t op = 0;
    while (op < raw_size) {
        if (ip >= size)
            throw CorruptBlockError("lz block truncated: control "
                                    "byte missing at offset " +
                                    std::to_string(ip));
        const std::uint8_t ctrl = data[ip++];
        for (int bit = 0; bit < 8; ++bit) {
            if (op == raw_size) {
                if ((ctrl >> bit) != 0)
                    throw CorruptBlockError(
                        "lz block has nonzero trailing flag bits");
                break;
            }
            if (ctrl & (1u << bit)) {
                if (ip + 2 > size)
                    throw CorruptBlockError(
                        "lz block truncated inside a match token");
                const std::size_t off =
                    static_cast<std::size_t>(data[ip]) |
                    (static_cast<std::size_t>(data[ip + 1] & 0x0f)
                     << 8);
                std::size_t len =
                    static_cast<std::size_t>(data[ip + 1] >> 4) +
                    kMinMatch;
                ip += 2;
                if (len > kMaxShortMatch) {
                    if (ip >= size)
                        throw CorruptBlockError(
                            "lz block truncated inside a match "
                            "length extension");
                    len = kMaxShortMatch + 1 +
                        static_cast<std::size_t>(data[ip++]);
                }
                if (off == 0 || off > op)
                    throw CorruptBlockError(
                        "lz match offset " + std::to_string(off) +
                        " out of range at output byte " +
                        std::to_string(op));
                if (op + len > raw_size)
                    throw CorruptBlockError(
                        "lz match overruns the block");
                for (std::size_t k = 0; k < len; ++k) {
                    out[op] = out[op - off];
                    ++op;
                }
            } else {
                if (ip >= size)
                    throw CorruptBlockError(
                        "lz block truncated inside a literal");
                out[op++] = data[ip++];
            }
        }
    }
    if (ip != size)
        throw CorruptBlockError(
            "lz block has " + std::to_string(size - ip) +
            " trailing bytes");
    switch (static_cast<Transform>(mode)) {
    case Transform::Plain:
        break;
    case Transform::Delta:
        unXorDelta(out, raw_size);
        break;
    case Transform::DeltaShuffle:
        unshuffleBytes(out, raw_size);
        unXorDelta(out, raw_size);
        break;
    }
}

} // namespace fairco2::cache
