/**
 * @file
 * Versioned, checksummed checkpoint/resume for Monte Carlo harnesses.
 *
 * Long Monte Carlo runs are divided into fixed-size chunks of trials.
 * After each chunk completes, the full result payload plus a
 * completed-chunk bitmap is atomically rewritten to the checkpoint
 * file (write to `<path>.tmp`, then rename). Because every trial is a
 * pure function of `base.fork(trial)`, a resumed run recomputes only
 * the missing chunks and reproduces the uninterrupted run's output
 * byte for byte — for any `--threads N`.
 *
 * File layout (native endianness, all integers little-ended on the
 * platforms we build for):
 *
 *     magic      4 bytes  "FC2K"
 *     version    u32      1 (raw payload) or 2 (compressed payload)
 *     codec      u32      version 2 only: cache::Codec id
 *     fingerprint u64     first draw of base.fork(2^63) — ties the
 *                         file to the RNG seed of the run
 *     config_hash u64     FNV-1a over every config field
 *     trials     u64
 *     chunk_trials u64
 *     record_bytes u64    sizeof(Record)
 *     stored_bytes u64    version 2 only: compressed payload size
 *     bitmap     ceil(chunks/8) bytes, bit c = chunk c complete
 *     payload    trials * record_bytes (v1) / stored_bytes (v2)
 *     checksum   u64      FNV-1a over all preceding bytes
 *
 * Version 1 is written when CheckpointOptions::codec is identity —
 * the exact bytes of the pre-codec format, so identity builds stay
 * file-compatible. Version 2 stores the payload through a
 * `cache::` compressor (see src/cache/compr_api.hh); the reader
 * accepts both and always hands back the raw payload, so resuming a
 * v1 file into a compressing run (or vice versa) reproduces the
 * same records.
 *
 * A checkpoint that is truncated, corrupted, version-mismatched, or
 * from a different configuration is rejected with a CheckpointError
 * (front ends exit 2) — a bad resume never silently degrades results.
 */

#ifndef FAIRCO2_RESILIENCE_CHECKPOINT_HH
#define FAIRCO2_RESILIENCE_CHECKPOINT_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/compr_api.hh"
#include "common/errors.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "resilience/signals.hh"

namespace fairco2::resilience
{

/** Unusable checkpoint file (corrupt, truncated, or mismatched). */
class CheckpointError : public FatalDataError
{
  public:
    explicit CheckpointError(const std::string &message)
        : FatalDataError(message)
    {
    }
};

/** Raw-payload checkpoint format version. */
constexpr std::uint32_t kCheckpointVersion = 1;

/** Compressed-payload checkpoint format version. */
constexpr std::uint32_t kCheckpointVersionCompressed = 2;

/** FNV-1a 64-bit offset basis / prime, shared by hash helpers. */
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** FNV-1a over a byte range, chainable via @p hash. */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t hash = kFnvOffset);

/** Fold one integer field into a config hash. */
std::uint64_t hashField(std::uint64_t hash, std::uint64_t value);

/** Fold one double field into a config hash (by bit pattern). */
std::uint64_t hashField(std::uint64_t hash, double value);

/**
 * The RNG stream reserved for the checkpoint fingerprint. Trials use
 * streams [0, trials), far below this.
 */
constexpr std::uint64_t kFingerprintStream =
    std::uint64_t{1} << 63;

/** Fingerprint tying a checkpoint to a run's RNG base. */
std::uint64_t checkpointFingerprint(const Rng &base);

/** Where and how densely to checkpoint; all optional. */
struct CheckpointOptions
{
    std::string checkpointPath; //!< write snapshots here (empty: off)
    std::string resumePath;     //!< restore from here first (empty: off)
    std::uint64_t chunkTrials = 0; //!< trials per chunk (0: one chunk)
    /** Payload codec for *written* snapshots (identity keeps the v1
     *  file format byte for byte); resumes auto-detect from the
     *  file, so any codec resumes any file. */
    cache::Codec codec = cache::Codec::Identity;

    /**
     * Test hook: stop after computing this many chunks this run,
     * simulating a kill mid-flight (0 = run to completion). The
     * checkpoint written so far stays on disk for a later resume.
     */
    std::uint64_t stopAfterChunks = 0;
};

/** What a checkpointed run actually did. */
struct CheckpointRunResult
{
    std::uint64_t totalChunks = 0;
    std::uint64_t resumedChunks = 0;  //!< restored from the file
    std::uint64_t computedChunks = 0; //!< computed this run
    bool complete = false;            //!< every chunk is done
    bool interrupted = false; //!< stopped early on SIGINT/SIGTERM
};

namespace detail
{

/** Raw checkpoint contents, independent of the record type. The
 *  payload is always the *decoded* bytes; @c codec records how the
 *  file stores (or should store) it on disk. */
struct CheckpointImage
{
    std::uint64_t fingerprint = 0;
    std::uint64_t configHash = 0;
    std::uint64_t trials = 0;
    std::uint64_t chunkTrials = 0;
    std::uint64_t recordBytes = 0;
    cache::Codec codec = cache::Codec::Identity;
    std::vector<std::uint8_t> bitmap;
    std::vector<std::uint8_t> payload;
};

/** Parse and checksum-verify a checkpoint file; throws CheckpointError. */
CheckpointImage readCheckpointFile(const std::string &path);

/** Atomically (tmp + rename) write a checkpoint file. */
void writeCheckpointFile(const std::string &path,
                         const CheckpointImage &image);

/**
 * Reject an image whose identity fields do not match the current
 * run; throws CheckpointError naming the mismatched field.
 */
void validateCheckpoint(const CheckpointImage &image,
                        const std::string &path,
                        std::uint64_t fingerprint,
                        std::uint64_t config_hash,
                        std::uint64_t trials,
                        std::uint64_t chunk_trials,
                        std::uint64_t record_bytes);

inline bool
bitmapGet(const std::vector<std::uint8_t> &bitmap, std::uint64_t chunk)
{
    return (bitmap[chunk / 8] >> (chunk % 8)) & 1u;
}

inline void
bitmapSet(std::vector<std::uint8_t> &bitmap, std::uint64_t chunk)
{
    bitmap[chunk / 8] |= static_cast<std::uint8_t>(1u << (chunk % 8));
}

} // namespace detail

/**
 * Run @p trials pure trials with chunk-level checkpointing. Each
 * trial t must be a pure function of t alone (draw randomness from
 * `base.fork(t)`), so recomputation after resume is bit-identical.
 * @p records is value-initialized to @p trials entries and filled in
 * place; @p trial_fn is `Record(std::uint64_t trial)`.
 *
 * With an empty checkpoint/resume path this degrades to a plain
 * parallel trial loop over chunks. Throws CheckpointError when the
 * resume file is unusable.
 */
template <typename Record, typename TrialFn>
CheckpointRunResult
runCheckpointedTrials(const CheckpointOptions &options, const Rng &base,
                      std::uint64_t config_hash, std::uint64_t trials,
                      std::vector<Record> &records, TrialFn &&trial_fn)
{
    static_assert(std::is_trivially_copyable_v<Record>,
                  "checkpoint records must be raw-copyable PODs");

    const std::uint64_t chunk_trials =
        options.chunkTrials > 0 ? options.chunkTrials : trials;
    const std::uint64_t num_chunks =
        trials == 0 ? 0 : (trials + chunk_trials - 1) / chunk_trials;

    CheckpointRunResult result;
    result.totalChunks = num_chunks;
    records.assign(trials, Record{});
    if (trials == 0) {
        result.complete = true;
        return result;
    }

    const std::uint64_t fingerprint = checkpointFingerprint(base);
    // `resumed` is frozen before the parallel loop; `done` is only
    // touched under commit_mutex (and read again after the join).
    std::vector<std::uint8_t> resumed((num_chunks + 7) / 8, 0);

    if (!options.resumePath.empty()) {
        auto image = detail::readCheckpointFile(options.resumePath);
        detail::validateCheckpoint(image, options.resumePath,
                                   fingerprint, config_hash, trials,
                                   chunk_trials, sizeof(Record));
        resumed = image.bitmap;
        for (std::uint64_t c = 0; c < num_chunks; ++c) {
            if (!detail::bitmapGet(resumed, c))
                continue;
            ++result.resumedChunks;
            const std::uint64_t first = c * chunk_trials;
            const std::uint64_t count =
                std::min(chunk_trials, trials - first);
            std::memcpy(records.data() + first,
                        image.payload.data() +
                            first * sizeof(Record),
                        count * sizeof(Record));
        }
    }

    std::vector<std::uint8_t> done = resumed;
    detail::CheckpointImage image;
    if (!options.checkpointPath.empty()) {
        image.codec = options.codec;
        image.fingerprint = fingerprint;
        image.configHash = config_hash;
        image.trials = trials;
        image.chunkTrials = chunk_trials;
        image.recordBytes = sizeof(Record);
        image.payload.resize(trials * sizeof(Record));
        // Seed the persistent payload with the resumed chunks so a
        // re-written checkpoint keeps them.
        std::memcpy(image.payload.data(), records.data(),
                    image.payload.size());
    }

    std::mutex commit_mutex;
    std::atomic<std::uint64_t> reserved{0};
    std::atomic<std::uint64_t> computed{0};

    const auto run_chunk = [&](std::uint64_t c) {
        if (detail::bitmapGet(resumed, c))
            return;
        // A shutdown signal stops *before* the next chunk starts;
        // chunks already in flight finish and commit normally, so
        // the checkpoint on disk always ends at a chunk boundary.
        if (shutdownRequested())
            return;
        if (options.stopAfterChunks > 0 &&
            reserved.fetch_add(1) >= options.stopAfterChunks)
            return;
        const std::uint64_t first = c * chunk_trials;
        const std::uint64_t last =
            std::min(first + chunk_trials, trials);
        for (std::uint64_t t = first; t < last; ++t)
            records[t] = trial_fn(t);
        computed.fetch_add(1);

        // Commit: only this chunk's own bytes are copied, so no
        // thread reads another chunk's records mid-write.
        std::lock_guard<std::mutex> lock(commit_mutex);
        detail::bitmapSet(done, c);
        if (options.checkpointPath.empty())
            return;
        std::memcpy(image.payload.data() + first * sizeof(Record),
                    records.data() + first,
                    (last - first) * sizeof(Record));
        image.bitmap = done;
        detail::writeCheckpointFile(options.checkpointPath, image);
    };
    parallel::parallelFor(
        0, static_cast<std::size_t>(num_chunks), 1,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t c = lo; c < hi; ++c)
                run_chunk(c);
        });

    result.computedChunks = computed.load();
    result.complete = true;
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
        if (!detail::bitmapGet(done, c)) {
            result.complete = false;
            break;
        }
    }
    result.interrupted = !result.complete && shutdownRequested();
    return result;
}

} // namespace fairco2::resilience

#endif // FAIRCO2_RESILIENCE_CHECKPOINT_HH
