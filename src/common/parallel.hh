/**
 * @file
 * Deterministic parallel execution for trial/coalition loops.
 *
 * All the heavy loops in Fair-CO2 — Monte Carlo trials, exact-Shapley
 * coalition enumeration, configuration-sweep grids — are
 * embarrassingly parallel. This layer runs them across a fixed-size
 * thread pool with *static* chunk assignment (no work stealing): the
 * iteration range is cut into chunks purely as a function of the
 * range and the chunk size, chunk c is executed by participant
 * c % threads, and reductions fold per-chunk partials in ascending
 * chunk order. Because neither the chunk grid nor the fold order
 * depends on the thread count, results are bit-identical for any
 * `--threads N`, including 1 — provided the loop body derives its
 * randomness per index (see Rng::fork) instead of sharing a stream.
 *
 * Nested calls do not re-enter the pool: a parallelFor issued from
 * inside a worker (e.g. exactShapley invoked by a Monte Carlo trial
 * that is itself parallelized) is rejected by the pool and executed
 * serially inline, which keeps the determinism guarantee and can
 * never deadlock.
 *
 * Exceptions thrown by a chunk body are captured, the remaining
 * chunks are abandoned as soon as possible, and the first exception
 * is rethrown on the calling thread once every participant has
 * stopped.
 */

#ifndef FAIRCO2_COMMON_PARALLEL_HH
#define FAIRCO2_COMMON_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace fairco2
{

class FlagSet;

namespace parallel
{

/** Threads the hardware offers (>= 1 even when undetectable). */
std::size_t hardwareConcurrency();

/** Currently configured worker count (>= 1). */
std::size_t threadCount();

/**
 * Set the worker count; 0 selects hardwareConcurrency(). Must not be
 * called from inside a parallel region. Changing the count never
 * changes results, only wall time.
 */
void setThreadCount(std::size_t count);

/** True while the calling thread is executing a parallel region. */
bool inParallelRegion();

/**
 * Register the shared `--threads` flag on a bench/tool FlagSet.
 * *value should default to 0 (= hardware concurrency).
 */
void addThreadsFlag(FlagSet &flags, std::int64_t *value);

/**
 * Apply a parsed `--threads` value (0 = hardware concurrency). A
 * negative value reports an error and exits 2, mirroring FlagSet's
 * handling of malformed flag values.
 */
void applyThreadsFlag(std::int64_t value);

namespace detail
{

/**
 * Execute chunk_body(c) for every c in [0, num_chunks), distributing
 * chunks round-robin over the pool. Serial when num_chunks <= 1, the
 * pool has one thread, or the caller is already inside a region.
 */
void runChunks(std::size_t num_chunks,
               const std::function<void(std::size_t)> &chunk_body);

} // namespace detail

/**
 * Parallel loop over [begin, end): body(lo, hi) is invoked once per
 * chunk with begin <= lo < hi <= end. The chunk grid depends only on
 * the range and @p chunk (clamped to >= 1), never on the thread
 * count. The body must be safe to run concurrently with itself on
 * disjoint chunks and must not depend on chunk execution order.
 */
template <typename Body>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
            Body &&body)
{
    if (begin >= end)
        return;
    if (chunk == 0)
        chunk = 1;
    const std::size_t num_chunks = (end - begin + chunk - 1) / chunk;
    detail::runChunks(num_chunks, [&](std::size_t c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        body(lo, hi);
    });
}

/**
 * Parallel map-reduce over [begin, end): map(lo, hi) produces one
 * partial per chunk, and the partials are folded left-to-right in
 * ascending chunk order with reduce(accumulator, partial). The fixed
 * fold order makes floating-point results bit-identical for any
 * thread count (they may differ from a single unchunked serial
 * accumulation, which is why callers pick a fixed @p chunk).
 */
template <typename T, typename Map, typename Reduce>
T
parallelMapReduce(std::size_t begin, std::size_t end,
                  std::size_t chunk, T identity, Map &&map,
                  Reduce &&reduce)
{
    T result = std::move(identity);
    if (begin >= end)
        return result;
    if (chunk == 0)
        chunk = 1;
    const std::size_t num_chunks = (end - begin + chunk - 1) / chunk;
    std::vector<T> partials(num_chunks, result);
    detail::runChunks(num_chunks, [&](std::size_t c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        partials[c] = map(lo, hi);
    });
    for (T &partial : partials)
        reduce(result, partial);
    return result;
}

/**
 * Wait-free snapshot publication for a single writer and any number
 * of concurrent readers (seqlock-style, double-buffered).
 *
 * The writer alternates between two buffers: each publish marks the
 * buffer readers are *not* being directed to as in progress, writes
 * it, flips the `latest` index to it, and only then marks it
 * complete. Readers copy the buffer `latest` points at and validate
 * the buffer's sequence counter around the copy; when a validation
 * fails (that buffer is still being written, or the writer lapped
 * into it mid-copy), the *other* buffer is guaranteed stable for the
 * remainder of that publish, so a read completes in at most two
 * attempts per overlapping publish — there are no reader-side locks,
 * and readers never make the writer wait. Because a buffer only
 * validates once `latest` already points at it, successive reads
 * never go back in time: no read can return a publish older than one
 * an earlier read returned.
 *
 * The payload is stored as 64-bit atomic words (relative to a
 * trivially copyable T), so concurrent reads during a write are
 * well-defined and ThreadSanitizer-clean: a torn snapshot can be
 * *observed* at the word level but is always *rejected* by the
 * sequence validation. All atomic operations use the default
 * sequentially consistent ordering — publishes are rare (one per
 * window advance) and seq_cst loads are plain loads on x86, so
 * nothing here is worth a weaker-ordering proof obligation.
 */
template <typename T>
class SnapshotCell
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SnapshotCell payloads are copied wordwise");

  public:
    SnapshotCell() { publish(T{}); }

    explicit SnapshotCell(const T &initial) { publish(initial); }

    SnapshotCell(const SnapshotCell &) = delete;
    SnapshotCell &operator=(const SnapshotCell &) = delete;

    /** Publish @p value. Single writer only. */
    void
    publish(const T &value)
    {
        const std::size_t next = 1 - latest_.load();
        Buffer &buffer = buffers_[next];
        const std::uint64_t seq = buffer.seq.load();
        buffer.seq.store(seq + 1); // odd: write in progress
        std::uint64_t raw[kWords] = {};
        std::memcpy(raw, &value, sizeof(T));
        for (std::size_t w = 0; w < kWords; ++w)
            buffer.words[w].store(raw[w]);
        // Flip before completing: were the buffer to validate first, a
        // reader falling back to it could return this publish and its
        // next read, still directed to the older buffer, the previous
        // one.
        latest_.store(next);
        buffer.seq.store(seq + 2); // even: write complete
        publishes_.fetch_add(1);
    }

    /**
     * Copy out the latest published snapshot. Safe from any thread,
     * no locks; completes in at most two buffer attempts per publish
     * that overlaps the read.
     */
    T
    read() const
    {
        for (;;) {
            const std::size_t preferred = latest_.load();
            for (std::size_t attempt = 0; attempt < 2; ++attempt) {
                T out;
                if (tryRead(buffers_[preferred ^ attempt], out))
                    return out;
            }
            // Both buffers changed under us: more than one publish
            // landed during this read. Start over.
        }
    }

    /** Publishes so far (0 before the first explicit publish — the
     *  constructor's T{} publish is not counted). */
    std::uint64_t
    publishes() const
    {
        return publishes_.load() - 1;
    }

  private:
    static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

    struct Buffer
    {
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> words[kWords] = {};
    };

    static bool
    tryRead(const Buffer &buffer, T &out)
    {
        const std::uint64_t s1 = buffer.seq.load();
        if (s1 & 1)
            return false; // write in progress
        std::uint64_t raw[kWords];
        for (std::size_t w = 0; w < kWords; ++w)
            raw[w] = buffer.words[w].load();
        if (buffer.seq.load() != s1)
            return false; // writer lapped into this buffer
        std::memcpy(&out, raw, sizeof(T));
        return true;
    }

    Buffer buffers_[2];
    std::atomic<std::size_t> latest_{0};
    std::atomic<std::uint64_t> publishes_{0};
};

} // namespace parallel
} // namespace fairco2

#endif // FAIRCO2_COMMON_PARALLEL_HH
