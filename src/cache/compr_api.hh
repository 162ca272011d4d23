/**
 * @file
 * Payload codecs for the WAL and the checkpoint files, after the
 * uszram `compr-api.h` pattern: a compressor is a stateless struct
 * with a `kName`, a `compress` that returns the stored bytes, and a
 * strict `decompress` that either reproduces the raw bytes exactly
 * or throws CorruptBlockError. Two ship, selected at run time by
 * Codec:
 *
 *  - IdentityCompr: stored bytes == raw bytes (the default);
 *  - LzCompr: word-wise XOR-delta followed by a deterministic greedy
 *    LZSS coder (12-bit offsets, 4-bit lengths), tuned for
 *    zero-heavy fixed-width binary records.
 *
 * Every stored bit is live: LzCompr zeroes unused trailing flag bits
 * on encode and the decoder rejects them when set, rejects trailing
 * bytes, and rejects any out-of-range token, so a single flipped
 * byte in a compressed block is either caught here or changes the
 * decoded bytes (and is then caught by the caller's checksum) — it
 * can never silently round-trip.
 */

#ifndef FAIRCO2_CACHE_COMPR_API_HH
#define FAIRCO2_CACHE_COMPR_API_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace fairco2::cache
{

/** Which compressor a WAL record or checkpoint payload uses; the
 *  numeric values are the on-disk codec ids. */
enum class Codec
{
    Identity,
    Lz,
};

/** The codec's flag spelling: `identity` or `lz`. */
const char *codecName(Codec codec);

/** Parse a codec flag value; throws std::invalid_argument naming the
 *  valid spellings on anything else. */
Codec parseCodec(const std::string &name);

/** A stored block failed to decode (truncated or corrupt bytes). */
class CorruptBlockError : public std::runtime_error
{
  public:
    explicit CorruptBlockError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Reference no-op compressor: stored bytes are the raw bytes. */
struct IdentityCompr
{
    static constexpr const char *kName = "identity";

    static std::vector<std::uint8_t>
    compress(const std::uint8_t *data, std::size_t size)
    {
        return std::vector<std::uint8_t>(data, data + size);
    }

    static void
    decompress(const std::uint8_t *data, std::size_t size,
               std::uint8_t *out, std::size_t raw_size)
    {
        if (size != raw_size)
            throw CorruptBlockError(
                "identity block size mismatch: stored " +
                std::to_string(size) + " bytes, expected " +
                std::to_string(raw_size));
        if (size > 0)
            std::memcpy(out, data, size);
    }
};

/** XOR-delta + greedy LZSS compressor (implemented in lz.cc). */
struct LzCompr
{
    static constexpr const char *kName = "lz";

    /** Most raw bytes one stored byte decodes to: a 3-byte match
     *  token emits at most 273 bytes (literals emit one per byte).
     *  Decoders bound an untrusted raw size by this before
     *  allocating. */
    static constexpr std::size_t kMaxExpansion = 91;

    static std::vector<std::uint8_t> compress(const std::uint8_t *data,
                                              std::size_t size);

    /** Decode exactly @p raw_size bytes into @p out or throw
     *  CorruptBlockError; never writes past out + raw_size. */
    static void decompress(const std::uint8_t *data, std::size_t size,
                           std::uint8_t *out, std::size_t raw_size);
};

} // namespace fairco2::cache

#endif // FAIRCO2_CACHE_COMPR_API_HH
