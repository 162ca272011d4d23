/**
 * @file
 * One live-signal replica: the deterministic server state machine.
 *
 * Replica is everything a serve run mutates per tick — admission
 * buckets, overload governor, shard engines, the fleet engine and its
 * window sums — factored out of SignalServer so the same machine can
 * be driven two ways:
 *
 *  - **live**: applyArrivalsLive() makes admission decisions from the
 *    tenant population and emits one durability::WalTickRecord
 *    describing them (the unit the write-ahead log appends);
 *  - **replay**: applyArrivalsReplay() re-applies a logged record —
 *    admitted batches take their class tokens, aggregate outcomes
 *    update totals, the governor observes the same deltas — and then
 *    cross-checks the record's running totals, bucket tokens, and
 *    governor level against the rebuilt state. Any divergence raises
 *    durability::WalIntegrityError; a WAL replay can be wrong loudly,
 *    never silently.
 *
 * Both paths feed the identical applyClose(), so a replica recovered
 * from the log publishes byte-identical intensities to one that never
 * crashed. windowDigests() exposes the FNV fingerprint of the
 * in-window per-period unit sums that the anti-entropy scrub compares
 * against the log-derived digests.
 */

#ifndef FAIRCO2_SERVER_REPLICA_HH
#define FAIRCO2_SERVER_REPLICA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/compr_api.hh"
#include "core/signalcore.hh"
#include "durability/wal.hh"
#include "pipeline/overload.hh"
#include "resilience/faultplan.hh"
#include "server/admission.hh"
#include "server/tenants.hh"

namespace fairco2::server
{

/** Hard cap on shards — the snapshot POD embeds one intensity slot
 *  per shard, and SnapshotCell payloads must be fixed-size. */
constexpr std::size_t kMaxShards = 64;

/** Sentinel for "no tick": the durability kill/halt hooks are off. */
constexpr std::uint64_t kNoTick = ~std::uint64_t{0};

/** Durability knobs for `fairco2 serve` (all off by default). */
struct DurabilityOptions
{
    /** WAL directory; empty disables durability entirely. */
    std::string walDir;
    /** Replay an existing WAL in walDir before serving new periods;
     *  without it a non-empty WAL directory is refused. */
    bool recover = false;
    /** Codec for WAL record payloads (per record, falls back to
     *  identity storage when compression does not pay). */
    cache::Codec walCodec = cache::Codec::Identity;
    /** Records per segment before the seal + rotate. */
    std::uint64_t walSegmentRecords = 16;
    /** Run the anti-entropy scrub every this many periods
     *  (0 = never; requires walDir). */
    std::uint64_t scrubPeriods = 8;
    /** Test hook: _exit(137) — a kill -9 — right after the handler
     *  at this event-loop tick (arrival ticks are 2p, closes 2p+1). */
    std::uint64_t killAtTick = kNoTick;
    /** Test hook: with killAtTick on an arrival tick, write only half
     *  of that tick's WAL frame first — a torn group commit. */
    bool killTorn = false;
    /** Test hook: stop the event loop after this tick without
     *  sealing the WAL tail — an in-process abrupt stop. */
    std::uint64_t haltAtTick = kNoTick;
};

/** Everything `fairco2 serve` configures. */
struct ServerConfig
{
    std::size_t tenants = 1000;
    std::size_t shards = 4;     //!< 1..kMaxShards
    double zipfS = 1.1;
    /** Admitted batches per period across all classes (0 = no
     *  admission limit). */
    std::uint64_t admissionRate = 0;
    /** Periods of tenant arrivals to simulate (the tail is drained
     *  so exactly this many periods close). */
    std::uint64_t durationPeriods = 48;
    std::size_t windowPeriods = 8;   //!< engine window W
    std::size_t periodSamples = 12;  //!< samples per period M
    std::size_t cacheCapacity = 64;  //!< engine sub-game cache
    std::vector<std::size_t> innerSplits{}; //!< periods' inner tree
    double stepSeconds = 300.0;
    double poolGramsPerSecond = 0.35;
    std::uint64_t seed = 42;
    std::size_t maxBatchPeriods = 8;
    std::uint64_t meanDemandUnits = 1u << 20;
    resilience::FaultPlan faultPlan;
    pipeline::OverloadGovernor::Config overload;
    DurabilityOptions durability;
};

/**
 * Hash of every config field the published signal depends on —
 * stamped into WAL segment headers so a log is only ever replayed
 * against the run shape that wrote it. Deliberately excludes shards,
 * threads, and the cache capacity: the signal is provably independent
 * of them, so a WAL written at --shards 4 replays at --shards 8.
 */
std::uint64_t serverConfigHash(const ServerConfig &config);

/** The replica state machine (see file comment). */
class Replica
{
  public:
    /** What one close tick produced. */
    struct CloseOutcome
    {
        bool closed = false;     //!< a period left the watermark
        bool published = false;  //!< the fleet window was full
        std::uint64_t period = 0;   //!< the closed period q
        double fleetIntensity = 0.0; //!< newest-period mean, g/res-s
        double attributedGrams = 0.0;
        std::uint64_t fleetUnits = 0; //!< closed period, total units
        bool faultInjected = false;   //!< cache-corrupt fired
        /** Newest-period mean intensity per shard. */
        std::array<double, kMaxShards> shardIntensity{};
    };

    Replica(const ServerConfig &config,
            const TenantPopulation &population);
    ~Replica();

    Replica(const Replica &) = delete;
    Replica &operator=(const Replica &) = delete;

    /** Live arrival tick for @p period: retries first, then fresh
     *  offers in tenant-rank order; returns the tick's WAL record. */
    durability::WalTickRecord applyArrivalsLive(std::uint64_t period);

    /** Replay a logged arrival tick; throws WalIntegrityError when
     *  the rebuilt state diverges from the record's cross-checks. */
    void applyArrivalsReplay(const durability::WalTickRecord &record);

    /** Close tick for @p period: materialize admitted batches and,
     *  once the watermark passes, close and attribute period
     *  `period - watermark`. */
    CloseOutcome applyClose(std::uint64_t period);

    /** Scrub fingerprint of the live window state (fleet + shards). */
    durability::WindowDigests windowDigests() const;

    const AdmissionController &admission() const { return admission_; }
    const pipeline::OverloadGovernor &governor() const
    {
        return governor_;
    }
    std::uint64_t watermark() const { return watermark_; }
    std::uint64_t periodsClosed() const { return periodsClosed_; }
    std::uint64_t batchesShed() const { return batchesShed_; }
    std::uint64_t faultsInjected() const { return faultsInjected_; }
    std::uint64_t samplesIngested() const;
    std::uint64_t engineRebuilds() const;

  private:
    /** One open period's accumulator and its diurnal carrier, which
     *  is computed once when the period is first touched and shared
     *  by every batch that covers it. */
    struct PendingPeriod
    {
        std::uint64_t period = 0;
        std::vector<double> carrier;
        std::vector<std::uint64_t> units;
        /** Tenants covering the period that the close has not yet
         *  materialized: at most kMaterializeBatch, so the close's
         *  scratch does not grow with the tick. */
        std::vector<std::uint64_t> tenants;
    };

    /** Shard-local mutable state; only its owning chunk touches it
     *  inside a parallel region. */
    struct Shard
    {
        /** Engine ownership + fault recovery via the shared core. */
        std::unique_ptr<core::IncrementalSignalCore> core;
        /** Materialized-but-unclosed demand, one entry per open
         *  period (at most watermark + 1). */
        std::vector<PendingPeriod> pending;
        /** Per-period unit sums of the in-window periods (deque
         *  parallel to the engine's window). */
        std::deque<std::uint64_t> windowUnitSums;
        /** Batches admitted this period, awaiting materialization. */
        std::vector<BatchRef> inbox;
        /** Scratch: the closed period's samples / newest intensity. */
        std::vector<std::uint64_t> closedUnits;
        double newestIntensityMean = 0.0;
        std::uint64_t samplesIngested = 0;
    };

    /** A tenant's push cadence and phase, as batchPeriods() and
     *  phaseOffset() return them (both at most 1 + log2(N) / 2, so
     *  a byte holds them). */
    struct PushSlot
    {
        std::uint8_t interval = 1;
        std::uint8_t phase = 0;
    };

    /** Tenants the close hands the batched kernel per call. */
    static constexpr std::size_t kMaterializeBatch = 256;

    void buildPushSchedule();
    void offerLive(const BatchRef &batch,
                   durability::WalTickRecord &record);
    CloseOutcome closePeriod(std::uint64_t period);
    PendingPeriod &pendingFor(Shard &shard,
                              std::uint64_t period) const;
    std::uint64_t materialize(PendingPeriod &entry) const;

    const ServerConfig &config_;
    const TenantPopulation &population_;
    AdmissionController admission_;
    pipeline::OverloadGovernor governor_;
    std::vector<Shard> shards_;
    std::unique_ptr<core::IncrementalSignalCore> fleet_;
    /** Fleet per-period unit sums of the in-window periods — the
     *  integer usage shares behind shard pools and the proportional
     *  fallback intensity. */
    std::deque<std::uint64_t> fleetWindowSums_;
    /** Every tenant's PushSlot, in rank order. Built at the first
     *  live arrival tick rather than in a constructor, so a
     *  replay-only recovery never pays for it. */
    std::vector<PushSlot> pushSchedule_;
    /** Batches deferred at the previous arrival tick. */
    std::vector<BatchRef> deferred_;
    std::uint64_t watermark_ = 0;
    std::uint64_t periodsClosed_ = 0;
    std::uint64_t batchesShed_ = 0;
    std::uint64_t faultsInjected_ = 0;
};

} // namespace fairco2::server

#endif // FAIRCO2_SERVER_REPLICA_HH
