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
 * replayed value. A windowed load (loadWal's `from_record`) applies
 * the same rules to the frames it returns and leaves the earlier
 * ones unchecked; the live scrub (ScrubLog) treats even a torn tail
 * as damage, because its own process committed those frames.
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
#include <utility>
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
    /** Records from_record, from_record + 1, ... in log order. */
    std::vector<WalTickRecord> records;
    std::uint64_t sealedSegments = 0; //!< sealed segments in the log
    std::uint64_t tailRecords = 0;  //!< `records` from the .open tail
    bool droppedTail = false;       //!< torn/corrupt tail suffix dropped
    std::string tailDiagnostic;     //!< names the segment + record
    /** Index the next segment should use (the tail's index when a
     *  tail exists, else one past the last sealed segment). */
    std::uint64_t nextSegmentIndex = 1;
};

/**
 * Load the records from index @p from_record on from @p dir: sealed
 * segments in index order, then the `.open` tail. The default loads
 * the whole log.
 *
 * Segment headers are read newest first, down to the first segment
 * that starts at or before @p from_record; older segments are not
 * opened. Inside that segment the earlier frames are stepped over by
 * their length fields, never checksummed or decoded, so a load reads
 * from disk little more than the frames it returns. Every segment
 * read is checked: magic, version, config hash, and that its first
 * record follows the previous segment's last. Segment names are
 * checked for the whole directory: indices must run 1, 2, ... with
 * at most one `.open` tail after them, and a `wal-` name ending in
 * `.seg` or `.open` whose index is not all digits throws naming the
 * file (other suffixes, such as a `.open.tmp` rewrite, are skipped).
 *
 * Damage in a returned sealed frame throws WalIntegrityError; tail
 * damage truncates at the first bad record and reports the drop in
 * the result (droppedTail, tailDiagnostic). @p from_record past the
 * end of the log throws. An empty directory returns zero records.
 * Each call bumps the `durability.wal.loads` counter, and
 * `durability.wal.frames_read` by the frames it decoded.
 */
WalLoadResult loadWal(const std::string &dir,
                      std::uint64_t config_hash,
                      std::uint64_t from_record = 0);

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

/**
 * The records a live anti-entropy scrub derives from: the logged
 * ticks that can still reach a scrub window, in log order, each read
 * from disk once. extend() reads only the frames committed since the
 * previous call, so a scrub's disk reads are O(new frames), never
 * O(log); dropThrough() keeps the list bounded by the window.
 */
class ScrubLog
{
  public:
    ScrubLog(std::string dir, std::uint64_t config_hash)
        : dir_(std::move(dir)), configHash_(config_hash)
    {
    }

    /**
     * Extend the list through record @p end - 1. Records below
     * `recovered.size()` were loaded and checksummed by recovery: they
     * are moved out of @p recovered, which must be done with them. The
     * rest are read with loadWal(dir, hash, next). Throws
     * WalIntegrityError naming the segment when a frame it reads is
     * damaged — a torn tail included, since the caller's own writer
     * committed every frame it asks for — or when the log ends early.
     */
    void extend(std::uint64_t end, std::span<WalTickRecord> recovered);

    /** Drop the records with period <= @p first_period: they reach
     *  no window that starts there or later. */
    void dropThrough(std::uint64_t first_period);

    std::span<const WalTickRecord> records() const { return records_; }

  private:
    std::string dir_;
    std::uint64_t configHash_ = 0;
    std::vector<WalTickRecord> records_;
    std::uint64_t next_ = 0; //!< index of the next record to take
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

/** Tenants deriveWindowDigests() passes to one unitsOf call, at most. */
constexpr std::size_t kDeriveBatch = 64;

/**
 * The units a group of tenants adds in one period: the sum over
 * @p tenants of each tenant's units in @p period. A tenant may repeat
 * (once per batch that covers the period).
 */
using PeriodUnits = std::function<std::uint64_t(
    std::uint64_t period, std::span<const std::uint64_t> tenants)>;

/**
 * Re-derive the window digests purely from WAL records: accumulate
 * per-period unit sums from each admitted batch's covered periods
 * via @p unitsOf(period, tenants) — the caller binds the tenant
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
 * The derivation scans each reaching batch once: one
 * parallel::parallelMapReduce chunk per record groups the record's
 * (tenant, period) pairs by (shard, period) and passes each group to
 * @p unitsOf in runs of at most kDeriveBatch tenants, so its scratch
 * is bounded by the groups, not by the record. @p unitsOf is
 * therefore called concurrently: it must be safe to call from
 * several threads at once (a pure function over read-only state).
 * The sums are integers, so the digests do not depend on the thread
 * count or on the grouping. Each call bumps
 * `durability.scrub.pairs_derived` by the (tenant, period) pairs it
 * re-materialized.
 */
WindowDigests deriveWindowDigests(std::span<const WalTickRecord> records,
                                  std::size_t shards,
                                  std::size_t window_periods,
                                  std::uint64_t watermark,
                                  const PeriodUnits &unitsOf);

/**
 * The same derivation, one (tenant, period) pair at a time: a thin
 * adapter that sums @p unitsOf(tenant, period) over each group.
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
