#include "replica.hh"

#include <algorithm>
#include <utility>

#include "common/obs.hh"
#include "common/parallel.hh"
#include "resilience/checkpoint.hh"

namespace fairco2::server
{

namespace
{

durability::WalBatch
toWalBatch(const BatchRef &batch)
{
    durability::WalBatch out;
    out.tenant = batch.tenant;
    out.period = batch.period;
    out.coveredPeriods = batch.coveredPeriods;
    out.deferred = batch.deferred ? 1 : 0;
    return out;
}

BatchRef
fromWalBatch(const durability::WalBatch &batch)
{
    BatchRef out;
    out.tenant = batch.tenant;
    out.period = batch.period;
    out.coveredPeriods = batch.coveredPeriods;
    out.deferred = batch.deferred != 0;
    return out;
}

[[noreturn]] void
replayDiverged(std::uint64_t period, const std::string &field,
               std::uint64_t got, std::uint64_t logged)
{
    throw durability::WalIntegrityError(
        "wal replay diverged at period " + std::to_string(period) +
        ": " + field + " is " + std::to_string(got) +
        ", log says " + std::to_string(logged));
}

} // namespace

std::uint64_t
serverConfigHash(const ServerConfig &config)
{
    using resilience::fnv1a64;
    std::uint64_t hash = fnv1a64("fairco2-serve-wal", 17);
    const auto mix = [&hash](const auto &value) {
        hash = fnv1a64(&value, sizeof(value), hash);
    };
    mix(config.tenants);
    mix(config.zipfS);
    mix(config.admissionRate);
    mix(config.durationPeriods);
    mix(config.windowPeriods);
    mix(config.periodSamples);
    mix(config.stepSeconds);
    mix(config.poolGramsPerSecond);
    mix(config.seed);
    mix(config.maxBatchPeriods);
    mix(config.meanDemandUnits);
    mix(config.overload.highWatermarkPercent);
    mix(config.overload.lowWatermarkPercent);
    mix(config.overload.escalatePeriods);
    mix(config.overload.recoverPeriods);
    for (std::size_t split : config.innerSplits)
        mix(split);
    // The fault plan changes shed/crash decisions, so a log is only
    // replayable under the plan that wrote it.
    if (!config.faultPlan.spec().empty())
        hash = fnv1a64(config.faultPlan.spec().data(),
                       config.faultPlan.spec().size(), hash);
    return hash;
}

Replica::Replica(const ServerConfig &config,
                 const TenantPopulation &population)
    : config_(config), population_(population),
      admission_([&] {
          AdmissionController::Config ac;
          ac.ratePerPeriod = config.admissionRate;
          return ac;
      }()),
      governor_(config.overload)
{
    // Period q closes once every batch covering it — including one
    // admission deferral — must have arrived.
    watermark_ = config_.maxBatchPeriods + 1;

    core::IncrementalSignalCore::Config cc;
    cc.windowPeriods = config_.windowPeriods;
    cc.periodSamples = config_.periodSamples;
    cc.stepSeconds = config_.stepSeconds;
    cc.innerSplits = config_.innerSplits;
    cc.cacheCapacity = config_.cacheCapacity;
    cc.poolGramsPerSecond = config_.poolGramsPerSecond;
    cc.seed = config_.seed;

    shards_.resize(config_.shards);
    for (Shard &shard : shards_)
        shard.core =
            std::make_unique<core::IncrementalSignalCore>(cc);
    fleet_ = std::make_unique<core::IncrementalSignalCore>(cc);
}

Replica::~Replica() = default;

Replica::PendingPeriod &
Replica::pendingFor(Shard &shard, std::uint64_t period) const
{
    for (PendingPeriod &entry : shard.pending)
        if (entry.period == period)
            return entry;
    PendingPeriod &entry = shard.pending.emplace_back();
    entry.period = period;
    entry.carrier = population_.diurnalCarrier(period);
    entry.units.assign(config_.periodSamples, 0);
    return entry;
}

std::uint64_t
Replica::materialize(PendingPeriod &entry) const
{
    const std::uint64_t pairs = entry.tenants.size();
    if (pairs > 0)
        population_.accumulateTenants(entry.period, entry.carrier,
                                      entry.tenants, entry.units);
    entry.tenants.clear();
    return pairs;
}

void
Replica::buildPushSchedule()
{
    // Both values are pure in the tenant, so the fill is
    // thread-count independent.
    pushSchedule_.resize(population_.size());
    parallel::parallelFor(
        0, pushSchedule_.size(), 4096,
        [this](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                PushSlot &slot = pushSchedule_[t];
                slot.interval = static_cast<std::uint8_t>(
                    population_.batchPeriods(t));
                slot.phase = static_cast<std::uint8_t>(
                    population_.phaseOffset(t));
            }
        });
}

void
Replica::offerLive(const BatchRef &batch,
                   durability::WalTickRecord &record)
{
    const TenantClass cls = population_.classOf(batch.tenant);
    // Overload levels >= ShedFree reject Free-tier batches before
    // they can drain the token buckets.
    if (governor_.level() != pipeline::OverloadLevel::Normal &&
        cls == TenantClass::Free) {
        ++batchesShed_;
        FAIRCO2_COUNT("server.admission.shed", 1);
        return;
    }
    const AdmissionDecision decision =
        admission_.offer(cls, batch.deferred);
    switch (decision) {
    case AdmissionDecision::Admitted:
        shards_[batch.tenant % config_.shards].inbox.push_back(batch);
        record.admitted.push_back(toWalBatch(batch));
        break;
    case AdmissionDecision::Deferred: {
        BatchRef retry = batch;
        retry.deferred = true;
        deferred_.push_back(retry);
        break;
    }
    case AdmissionDecision::Rejected:
        break;
    }
}

durability::WalTickRecord
Replica::applyArrivalsLive(std::uint64_t period)
{
    durability::WalTickRecord record;
    record.period = period;

    admission_.beginPeriod();
    const AdmissionController::Totals before = admission_.totals();
    const std::uint64_t shed_before = batchesShed_;

    // Batches deferred at the previous period go first — they have
    // already waited one period and the watermark only covers one
    // deferral.
    std::vector<BatchRef> retries;
    retries.swap(deferred_);
    for (const BatchRef &batch : retries)
        offerLive(batch, record);

    // Fresh offers in tenant-rank order (the Zipf head pushes
    // first). Serial and shard-agnostic: this order is part of the
    // determinism contract. The cached schedule stands in for
    // pushesAt() and batchAt().
    if (period < config_.durationPeriods) {
        if (pushSchedule_.size() != population_.size())
            buildPushSchedule();
        for (std::uint64_t t = 0; t < pushSchedule_.size(); ++t) {
            const PushSlot slot = pushSchedule_[t];
            if (period % slot.interval != slot.phase)
                continue;
            BatchRef batch;
            batch.tenant = t;
            batch.period = period;
            batch.coveredPeriods = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(slot.interval, period));
            if (batch.coveredPeriods == 0)
                continue; // first push before any period closed
            offerLive(batch, record);
        }
    }

    const AdmissionController::Totals after = admission_.totals();
    record.offeredDelta = after.offered - before.offered;
    record.deferredDelta = after.deferred - before.deferred;
    record.rejectedDelta = after.rejected - before.rejected;
    record.shedDelta = batchesShed_ - shed_before;
    governor_.observe(record.offeredDelta, record.deferredDelta,
                      record.rejectedDelta);

    for (const BatchRef &batch : deferred_)
        record.deferredOut.push_back(toWalBatch(batch));
    record.totalOffered = after.offered;
    record.totalAdmitted = after.admitted;
    record.totalDeferred = after.deferred;
    record.totalRejected = after.rejected;
    for (std::size_t c = 0; c < kTenantClasses; ++c)
        record.bucketTokens[c] =
            admission_.bucket(static_cast<TenantClass>(c)).tokens();
    record.overloadLevel =
        static_cast<std::uint32_t>(governor_.level());
    return record;
}

void
Replica::applyArrivalsReplay(const durability::WalTickRecord &record)
{
    admission_.beginPeriod();

    // Replay applies the *logged* decisions rather than re-deriving
    // them: admitted batches take their class tokens and land in
    // their shard inboxes; deferred/rejected offers update totals in
    // aggregate; the next tick's retry set is the logged one.
    deferred_.clear();
    for (const durability::WalBatch &batch : record.admitted) {
        const TenantClass cls = population_.classOf(batch.tenant);
        if (!admission_.replayAdmit(cls))
            throw durability::WalIntegrityError(
                "wal replay diverged at period " +
                std::to_string(record.period) +
                ": logged admission of tenant " +
                std::to_string(batch.tenant) +
                " found an empty token bucket");
        shards_[batch.tenant % config_.shards].inbox.push_back(
            fromWalBatch(batch));
    }
    admission_.replayNonAdmitted(record.deferredDelta,
                                 record.rejectedDelta);
    batchesShed_ += record.shedDelta;
    FAIRCO2_COUNT("server.admission.shed", record.shedDelta);
    governor_.observe(record.offeredDelta, record.deferredDelta,
                      record.rejectedDelta);
    for (const durability::WalBatch &batch : record.deferredOut)
        deferred_.push_back(fromWalBatch(batch));

    // Cross-checks: the record carries the primary's running totals,
    // bucket tokens, and governor level after this tick. A replayed
    // state that disagrees means the log and the configuration do
    // not describe the same run — fail loudly, never publish from it.
    const AdmissionController::Totals &totals = admission_.totals();
    if (totals.offered != record.totalOffered)
        replayDiverged(record.period, "offered total",
                       totals.offered, record.totalOffered);
    if (totals.admitted != record.totalAdmitted)
        replayDiverged(record.period, "admitted total",
                       totals.admitted, record.totalAdmitted);
    if (totals.deferred != record.totalDeferred)
        replayDiverged(record.period, "deferred total",
                       totals.deferred, record.totalDeferred);
    if (totals.rejected != record.totalRejected)
        replayDiverged(record.period, "rejected total",
                       totals.rejected, record.totalRejected);
    for (std::size_t c = 0; c < kTenantClasses; ++c) {
        const std::uint64_t tokens =
            admission_.bucket(static_cast<TenantClass>(c)).tokens();
        if (tokens != record.bucketTokens[c])
            replayDiverged(record.period,
                           "class " + std::to_string(c) +
                               " bucket tokens",
                           tokens, record.bucketTokens[c]);
    }
    const auto level =
        static_cast<std::uint32_t>(governor_.level());
    if (level != record.overloadLevel)
        replayDiverged(record.period, "overload level", level,
                       record.overloadLevel);
}

Replica::CloseOutcome
Replica::applyClose(std::uint64_t period)
{
    const std::size_t S = config_.shards;
    const std::size_t M = config_.periodSamples;

    // Materialize this period's admitted batches into shard-local
    // pending accumulators; when a period is closing, extract its
    // samples. One chunk per shard: all mutation is shard-local, so
    // the region is race-free and — because materialization is pure
    // in (seed, tenant, period) — thread-count independent. The
    // inbox's (tenant, period) pairs are grouped by period and handed
    // to the batched kernel kMaterializeBatch at a time.
    const bool closing = period >= watermark_;
    const std::uint64_t q = closing ? period - watermark_ : 0;
    {
        FAIRCO2_SPAN("server.close.materialize");
        parallel::parallelFor(0, S, 1, [&](std::size_t lo,
                                           std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                Shard &shard = shards_[s];
                [[maybe_unused]] std::uint64_t pairs = 0;
                for (const BatchRef &batch : shard.inbox) {
                    for (std::uint32_t p = 0; p < batch.coveredPeriods;
                         ++p) {
                        PendingPeriod &entry = pendingFor(
                            shard,
                            batch.period - batch.coveredPeriods + p);
                        entry.tenants.push_back(batch.tenant);
                        if (entry.tenants.size() == kMaterializeBatch)
                            pairs += materialize(entry);
                    }
                    shard.samplesIngested +=
                        static_cast<std::uint64_t>(
                            batch.coveredPeriods) *
                        M;
                }
                shard.inbox.clear();
                for (PendingPeriod &entry : shard.pending)
                    pairs += materialize(entry);
                FAIRCO2_COUNT("server.materialize.pairs", pairs);
                if (!closing)
                    continue;
                shard.closedUnits.assign(M, 0);
                const auto closed = std::find_if(
                    shard.pending.begin(), shard.pending.end(),
                    [q](const PendingPeriod &entry) {
                        return entry.period == q;
                    });
                if (closed != shard.pending.end()) {
                    shard.closedUnits = std::move(closed->units);
                    shard.pending.erase(closed);
                }
            }
        });
    }

    if (!closing)
        return CloseOutcome{};
    return closePeriod(q);
}

Replica::CloseOutcome
Replica::closePeriod(std::uint64_t period)
{
    const std::size_t S = config_.shards;
    const std::size_t M = config_.periodSamples;
    const std::size_t W = config_.windowPeriods;
    const double pool_window = config_.poolGramsPerSecond *
                               config_.stepSeconds *
                               static_cast<double>(M) *
                               static_cast<double>(W);
    CloseOutcome outcome;
    outcome.closed = true;
    outcome.period = period;

    // Fleet aggregate: an associative integer sum over shards, so it
    // is identical for any shard partition — the keystone of the
    // bit-identity contract.
    std::vector<std::uint64_t> fleet_units(M, 0);
    for (std::size_t s = 0; s < S; ++s) {
        std::uint64_t shard_sum = 0;
        for (std::size_t i = 0; i < M; ++i) {
            fleet_units[i] += shards_[s].closedUnits[i];
            shard_sum += shards_[s].closedUnits[i];
        }
        shards_[s].windowUnitSums.push_back(shard_sum);
        if (shards_[s].windowUnitSums.size() > W)
            shards_[s].windowUnitSums.pop_front();
    }
    std::uint64_t fleet_sum = 0;
    for (std::size_t i = 0; i < M; ++i)
        fleet_sum += fleet_units[i];
    fleetWindowSums_.push_back(fleet_sum);
    if (fleetWindowSums_.size() > W)
        fleetWindowSums_.pop_front();
    std::uint64_t fleet_window_units = 0;
    for (std::uint64_t sum : fleetWindowSums_)
        fleet_window_units += sum;
    outcome.fleetUnits = fleet_sum;

    // Per-shard attribution (observability only — shard signals
    // depend on the partition by identity). Each shard's slice of
    // the window pool is its integer usage share.
    parallel::parallelFor(0, S, 1, [&](std::size_t lo,
                                       std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
            Shard &shard = shards_[s];
            for (std::size_t i = 0; i < M; ++i)
                shard.core->push(
                    static_cast<double>(shard.closedUnits[i]));
            shard.newestIntensityMean = 0.0;
            if (!shard.core->ready())
                continue;
            std::uint64_t shard_window_units = 0;
            for (std::uint64_t sum : shard.windowUnitSums)
                shard_window_units += sum;
            const double shard_pool =
                fleet_window_units == 0
                    ? 0.0
                    : pool_window *
                          (static_cast<double>(shard_window_units) /
                           static_cast<double>(fleet_window_units));
            shard.newestIntensityMean =
                shard.core->publishNewest(shard_pool)
                    .newestMeanIntensity;
        }
    });

    // Fleet attribution — the published signal. Serial, fed by the
    // shard-independent aggregate. The core recovers from injected
    // cache corruption by rebuilding its engine from the retained
    // window samples; the engine's cache-state-independence contract
    // makes the republished signal identical to a fault-free run.
    for (std::size_t i = 0; i < M; ++i)
        fleet_->push(static_cast<double>(fleet_units[i]));
    ++periodsClosed_;

    if (!fleet_->ready())
        return outcome;

    if (config_.faultPlan.active() &&
        config_.faultPlan.fires(resilience::FaultSite::CacheCorrupt,
                                period) &&
        fleet_->corruptCacheEntryForTest()) {
        config_.faultPlan.noteInjected();
        ++faultsInjected_;
        outcome.faultInjected = true;
        FAIRCO2_COUNT("resilience.fault.cache_corrupt", 1);
    }
    const auto publication = fleet_->publishNewest(pool_window);
    double fleet_mean = publication.newestMeanIntensity;
    outcome.attributedGrams = publication.attributedGrams;

    // Overload level Proportional degrades the *published* value to
    // the RUP baseline's constant intensity while the engines keep
    // ingesting, so recovery republishes exact values immediately.
    if (governor_.level() == pipeline::OverloadLevel::Proportional &&
        fleet_window_units > 0) {
        fleet_mean = pool_window /
                     (static_cast<double>(fleet_window_units) *
                      config_.stepSeconds);
        FAIRCO2_COUNT("server.publish.proportional", 1);
    }

    outcome.published = true;
    outcome.fleetIntensity = fleet_mean;
    for (std::size_t s = 0; s < S; ++s)
        outcome.shardIntensity[s] = shards_[s].newestIntensityMean;
    return outcome;
}

durability::WindowDigests
Replica::windowDigests() const
{
    durability::WindowDigests out;
    out.fleet = durability::windowSumDigest(
        periodsClosed_,
        std::vector<std::uint64_t>(fleetWindowSums_.begin(),
                                   fleetWindowSums_.end()));
    out.shard.reserve(shards_.size());
    for (const Shard &shard : shards_)
        out.shard.push_back(durability::windowSumDigest(
            periodsClosed_,
            std::vector<std::uint64_t>(shard.windowUnitSums.begin(),
                                       shard.windowUnitSums.end())));
    return out;
}

std::uint64_t
Replica::samplesIngested() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.samplesIngested;
    return total;
}

std::uint64_t
Replica::engineRebuilds() const
{
    return fleet_->rebuilds();
}

} // namespace fairco2::server
