/**
 * @file
 * Write-ahead log for the live-signal server's arrival ticks.
 *
 * The serve event loop appends exactly one WalTickRecord per arrival
 * tick — the admitted telemetry batches, the batches deferred to the
 * next period, and the admission/governor outcome of the tick — in
 * one buffered write flushed before the tick's handler returns
 * (group commit per tick). A server killed at any tick can therefore
 * be rebuilt by re-driving the event loop from the log: the record
 * stream plus the deterministic tenant population reproduces shard
 * engines, seqlock snapshots, token buckets, and governor state bit
 * for bit (see server::Replica::applyArrivalsReplay).
 *
 * ## On-disk layout
 *
 * The log is a directory of fixed-capacity segments:
 *
 *     wal-000001.seg   sealed (immutable, complete)
 *     wal-000002.seg
 *     wal-000003.open  the active tail (append-only)
 *
 * Every segment starts with a header (magic "FC2W", format version,
 * config hash, first record index); records follow back to back:
 *
 *     raw_bytes    u32   serialized record size before the codec
 *     stored_bytes u32   bytes on disk (== raw_bytes for identity)
 *     codec        u8    cache::Codec id (identity | lz)
 *     payload      stored_bytes
 *     checksum     u64   FNV-1a over the frame header + payload
 *
 * When a segment reaches its record capacity it is *sealed*: the
 * file is flushed and atomically renamed `.open` -> `.seg` (the same
 * tmp+rename discipline the checkpoint store uses), and the next
 * `.open` segment is created.
 *
 * ## Integrity contract
 *
 * Sealed segments must parse completely: any truncation, bad magic,
 * config-hash mismatch, or checksum failure raises WalIntegrityError
 * — sealed history is never silently shortened. The `.open` tail is
 * different: a kill -9 can tear its last record, so the loader keeps
 * the longest valid record prefix and *drops* the tail from the
 * first bad checksum on, reporting a named diagnostic. A kill before
 * the tail's first flush leaves it shorter than its header; that is
 * the same torn tail, holding no records. Either way a flipped byte
 * surfaces as an error or a dropped suffix — never as a wrong
 * replayed value.
 *
 * The writer checks every stdio call: a failed write, flush, or
 * close (a full disk) throws WalIntegrityError naming the segment,
 * so a tick is never reported committed while its bytes are lost.
 */

#ifndef FAIRCO2_DURABILITY_WAL_HH
#define FAIRCO2_DURABILITY_WAL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cache/compr_api.hh"
#include "common/errors.hh"

namespace fairco2::durability
{

/** Unusable WAL state (corrupt sealed segment, mismatched config,
 *  malformed directory); front ends exit 2. */
class WalIntegrityError : public FatalDataError
{
  public:
    explicit WalIntegrityError(const std::string &message)
        : FatalDataError(message)
    {
    }
};

/** WAL segment format version. Version 3 dropped the two u64
 *  model-decision totals that version 2 appended to every tick
 *  record; a version-2 log fails loadWal by name. */
constexpr std::uint32_t kWalVersion = 3;

/** One telemetry batch as logged: mirrors server::BatchRef without
 *  depending on the server layer. */
struct WalBatch
{
    std::uint64_t tenant = 0;
    std::uint64_t period = 0;
    std::uint32_t coveredPeriods = 1;
    std::uint8_t deferred = 0;

    bool
    operator==(const WalBatch &other) const
    {
        return tenant == other.tenant && period == other.period &&
            coveredPeriods == other.coveredPeriods &&
            deferred == other.deferred;
    }
};

/** Everything one arrival tick decided, in decision order. */
struct WalTickRecord
{
    std::uint64_t period = 0;
    /** Admitted batches, in admission order. */
    std::vector<WalBatch> admitted;
    /** Batches deferred to the next period's arrival tick. */
    std::vector<WalBatch> deferredOut;
    /** This tick's admission deltas (offers that reached the token
     *  buckets; shed batches never do). */
    std::uint64_t offeredDelta = 0;
    std::uint64_t deferredDelta = 0;
    std::uint64_t rejectedDelta = 0;
    std::uint64_t shedDelta = 0;
    /** Cross-checks: running admission totals, per-class bucket
     *  tokens, and the governor level *after* the tick. Replay
     *  verifies these and raises WalIntegrityError on divergence. */
    std::uint64_t totalOffered = 0;
    std::uint64_t totalAdmitted = 0;
    std::uint64_t totalDeferred = 0;
    std::uint64_t totalRejected = 0;
    std::uint64_t bucketTokens[3] = {0, 0, 0};
    std::uint32_t overloadLevel = 0;

    bool operator==(const WalTickRecord &other) const;
};

/** Serialize @p record (before any codec). */
std::vector<std::uint8_t> encodeRecord(const WalTickRecord &record);

/** Parse a serialized record; throws WalIntegrityError on malformed
 *  bytes (the checksum layer makes this unreachable for torn writes,
 *  but flipped bytes that survive framing land here). */
WalTickRecord decodeRecord(const std::vector<std::uint8_t> &bytes);

/** What loading a WAL directory produced. */
struct WalLoadResult
{
    std::vector<WalTickRecord> records;
    std::uint64_t sealedSegments = 0;
    std::uint64_t tailRecords = 0;  //!< valid records in the .open tail
    bool droppedTail = false;       //!< torn/corrupt tail suffix dropped
    std::string tailDiagnostic;     //!< names the segment + record
    /** Index the next segment should use (the tail's index when a
     *  tail exists, else one past the last sealed segment). */
    std::uint64_t nextSegmentIndex = 1;
};

/**
 * Load every record from @p dir: sealed segments in index order,
 * then the `.open` tail. Sealed-segment damage throws
 * WalIntegrityError; tail damage truncates at the first bad record
 * and reports the drop in the result. An empty directory returns
 * zero records. Each call bumps the `durability.wal.loads` counter.
 */
WalLoadResult loadWal(const std::string &dir,
                      std::uint64_t config_hash);

/** Path of segment @p index inside @p dir ("wal-%06llu" + suffix). */
std::string segmentPath(const std::string &dir, std::uint64_t index,
                        bool sealed);

/**
 * Preflight a `--wal-dir` value: create the directory when missing,
 * then probe it for writability. Returns an empty string when
 * usable, else a human-readable diagnostic (front ends print it and
 * exit 2 before the event loop starts).
 */
std::string walDirError(const std::string &dir);

/** Group-commit segment writer. Not thread-safe by design — appends
 *  happen inside the single-threaded event loop's arrival tick. */
class WalWriter
{
  public:
    struct Options
    {
        std::string dir;
        std::uint64_t configHash = 0;
        cache::Codec codec = cache::Codec::Identity;
        /** Records per segment before the seal + rotate. */
        std::uint64_t segmentRecords = 16;
        /** First segment index to write (recovery adoption). */
        std::uint64_t firstSegmentIndex = 1;
        /** Global index of the first record this writer appends
         *  (recovery adoption; 0 for a fresh log). */
        std::uint64_t firstRecordIndex = 0;
    };

    explicit WalWriter(const Options &options);
    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /**
     * Rewrite the adopted tail: atomically replaces the `.open`
     * segment with @p records (tmp + rename), so recovery preserves
     * the valid tail prefix before new appends continue. Call before
     * the first append().
     */
    void adoptTail(const std::vector<WalTickRecord> &records);

    /** Append one tick's record and flush (the group commit). Seals
     *  and rotates when the segment reaches capacity. */
    void append(const WalTickRecord &record);

    /**
     * Seal the current tail segment (flush + atomic rename), even
     * when short — the clean-shutdown path. Idempotent; a later
     * append() starts the next segment.
     */
    void seal();

    /** Test hook: write half of @p record's frame and flush, leaving
     *  a torn tail exactly as a kill -9 mid-write would. */
    void appendTorn(const WalTickRecord &record);

    std::uint64_t recordsAppended() const { return records_; }
    std::uint64_t segmentsSealed() const { return sealed_; }
    /** Serialized record bytes before the codec. */
    std::uint64_t rawBytes() const { return rawBytes_; }
    /** Frame bytes actually written (headers + stored payloads). */
    std::uint64_t storedBytes() const { return storedBytes_; }

  private:
    void openSegment();
    void writeFrame(const WalTickRecord &record, bool torn);

    Options options_;
    std::FILE *file_ = nullptr;
    std::string path_;                 //!< file_'s path, for errors
    std::uint64_t segmentIndex_ = 0;   //!< current open segment
    std::uint64_t segmentRecords_ = 0; //!< records in it so far
    std::uint64_t records_ = 0;
    std::uint64_t sealed_ = 0;
    std::uint64_t rawBytes_ = 0;
    std::uint64_t storedBytes_ = 0;
};

/** Anti-entropy scrub digests: FNV-1a over the in-window per-period
 *  unit sums (fleet and per shard) plus the closed-period count. */
struct WindowDigests
{
    std::uint64_t fleet = 0;
    std::vector<std::uint64_t> shard;

    bool
    operator==(const WindowDigests &other) const
    {
        return fleet == other.fleet && shard == other.shard;
    }
};

/** The closed periods a scrub digests, as derived from the log. */
struct ScrubWindow
{
    std::uint64_t closed = 0;  //!< periods closed after the last record
    std::uint64_t first = 0;   //!< oldest in-window closed period
    std::uint64_t periods = 0; //!< in-window periods (<= the window)
};

/** The scrub window of @p records: periods close up to
 *  `lastPeriod - watermark`, and the last @p window_periods of them
 *  are in window. */
ScrubWindow scrubWindow(std::span<const WalTickRecord> records,
                        std::size_t window_periods,
                        std::uint64_t watermark);

/**
 * Re-derive the window digests purely from WAL records: accumulate
 * per-period unit sums from each admitted batch's covered periods
 * via @p unitsOf(tenant, period) — the caller binds the tenant
 * population's integer materialization — route shard sums by
 * `tenant % shards`, and digest the scrubWindow() periods. The fleet
 * sums are the integer sum of the shard sums. Matches
 * server::Replica::windowDigests() on an uncorrupted run by
 * construction.
 *
 * @p records must be in tick order (a log's order). A batch covers
 * only periods before its own, and its period is at most its
 * record's (a deferred retry keeps the period it was first offered
 * at), so the records up to the window's first period cannot reach
 * it: the scan starts at the first record past them.
 *
 * The derivation runs one parallel::parallelFor chunk per shard, so
 * @p unitsOf is called concurrently for tenants of *different*
 * shards: it must be safe to call from several threads at once (a
 * pure function over read-only state). The digests do not depend on
 * the thread count.
 */
WindowDigests deriveWindowDigests(
    std::span<const WalTickRecord> records, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf);

/** The digest formula both sides share: FNV-1a over @p closed_periods
 *  then the window's per-period sums, oldest first. */
std::uint64_t windowSumDigest(std::uint64_t closed_periods,
                              const std::vector<std::uint64_t> &sums);

} // namespace fairco2::durability

#endif // FAIRCO2_DURABILITY_WAL_HH
