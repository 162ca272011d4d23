/**
 * @file
 * Tests for the sharded live-signal server: Zipf weights, the
 * deterministic event loop, token-bucket admission, tenant-demand
 * purity and the shared-carrier kernel's bit-identity, and the server's headline contracts — the published fleet
 * signal is bit-identical across shard and thread counts, survives
 * injected cache corruption unchanged, degrades under admission
 * overload, and stays readable from concurrent wait-free snapshot
 * readers while the run is in flight.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "resilience/faultplan.hh"
#include "server/admission.hh"
#include "server/eventloop.hh"
#include "server/signalserver.hh"
#include "server/tenants.hh"
#include "server/zipf.hh"

namespace fairco2::server
{
namespace
{

/** RAII thread-count override so a failure can't leak the setting. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n)
        : saved_(parallel::threadCount())
    {
        parallel::setThreadCount(n);
    }
    ~ScopedThreads() { parallel::setThreadCount(saved_); }

  private:
    std::size_t saved_;
};

/** A small, fast server config the contract tests share. */
ServerConfig
smallConfig()
{
    ServerConfig config;
    config.tenants = 200;
    config.shards = 2;
    config.durationPeriods = 20;
    config.windowPeriods = 4;
    config.periodSamples = 6;
    return config;
}

// ---- Zipf ----------------------------------------------------------

TEST(Zipf, WeightsAreNormalizedAndDecreasing)
{
    const Zipf zipf(100, 1.1);
    double sum = 0.0;
    for (std::size_t r = 0; r < zipf.size(); ++r) {
        sum += zipf.weight(r);
        if (r > 0) {
            EXPECT_LT(zipf.weight(r), zipf.weight(r - 1));
        }
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    const Zipf zipf(10, 0.0);
    for (std::size_t r = 0; r < zipf.size(); ++r)
        EXPECT_NEAR(zipf.weight(r), 0.1, 1e-12);
}

TEST(Zipf, SamplingInvertsTheCdf)
{
    const Zipf zipf(50, 1.0);
    EXPECT_EQ(zipf.sample(0.0), 0u);
    // The heaviest rank owns [0, weight(0)).
    EXPECT_EQ(zipf.sample(zipf.weight(0) * 0.999), 0u);
    EXPECT_EQ(zipf.sample(zipf.weight(0) * 1.001), 1u);
    // Out-of-range u clamps instead of overflowing the rank range.
    EXPECT_EQ(zipf.sample(1.0), zipf.size() - 1);
    EXPECT_EQ(zipf.sample(2.0), zipf.size() - 1);
}

TEST(Zipf, RejectsDegenerateParameters)
{
    EXPECT_THROW(Zipf(0, 1.0), std::invalid_argument);
    EXPECT_THROW(Zipf(10, -0.5), std::invalid_argument);
}

// ---- Event loop ----------------------------------------------------

TEST(EventLoop, RunsInTickThenFifoOrder)
{
    EventLoop loop;
    std::vector<int> order;
    loop.at(5, [&] { order.push_back(3); });
    loop.at(1, [&] { order.push_back(1); });
    loop.at(5, [&] { order.push_back(4); }); // same tick: FIFO
    loop.at(2, [&] { order.push_back(2); });
    EXPECT_EQ(loop.run(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(loop.executed(), 4u);
    EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, HandlersMayScheduleAtTheCurrentTick)
{
    EventLoop loop;
    std::vector<int> order;
    loop.at(1, [&] {
        order.push_back(1);
        // Lands after the already-queued tick-1 event.
        loop.at(1, [&] { order.push_back(3); });
    });
    loop.at(1, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, RejectsSchedulingInThePast)
{
    EventLoop loop;
    loop.at(3, [&] { EXPECT_THROW(loop.at(2, [] {}), std::logic_error); });
    loop.run();
    EXPECT_EQ(loop.now(), 3u);
}

TEST(EventLoop, StopReturnsAfterTheCurrentEvent)
{
    EventLoop loop;
    int ran = 0;
    loop.at(1, [&] {
        ++ran;
        loop.stop();
    });
    loop.at(2, [&] { ++ran; });
    EXPECT_EQ(loop.run(), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(loop.pending(), 1u);
}

// ---- Admission -----------------------------------------------------

TEST(Admission, UnlimitedAdmitsEveryOffer)
{
    AdmissionController controller(AdmissionController::Config{});
    EXPECT_TRUE(controller.unlimited());
    controller.beginPeriod();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(controller.offer(TenantClass::Free, false),
                  AdmissionDecision::Admitted);
    EXPECT_EQ(controller.totals().admitted, 100u);
    EXPECT_EQ(controller.totals().rejected, 0u);
}

TEST(Admission, ClassSplitFavorsPaidTiers)
{
    AdmissionController::Config config;
    config.ratePerPeriod = 20;
    AdmissionController controller(config);
    // Reserved 50%, Standard 35%, Free the remainder (min 1 each).
    EXPECT_EQ(controller.bucket(TenantClass::Reserved).ratePerPeriod(),
              10u);
    EXPECT_EQ(controller.bucket(TenantClass::Standard).ratePerPeriod(),
              7u);
    EXPECT_EQ(controller.bucket(TenantClass::Free).ratePerPeriod(),
              3u);
    // Burst = rate x burstPeriods.
    EXPECT_EQ(controller.bucket(TenantClass::Reserved).burst(), 20u);
}

TEST(Admission, EveryClassGetsAtLeastOneToken)
{
    AdmissionController::Config config;
    config.ratePerPeriod = 1;
    AdmissionController controller(config);
    EXPECT_GE(controller.bucket(TenantClass::Reserved).ratePerPeriod(),
              1u);
    EXPECT_GE(controller.bucket(TenantClass::Standard).ratePerPeriod(),
              1u);
    EXPECT_GE(controller.bucket(TenantClass::Free).ratePerPeriod(),
              1u);
}

TEST(Admission, DefersOnceThenRejects)
{
    AdmissionController::Config config;
    config.ratePerPeriod = 3; // Free gets exactly 1 token/period
    config.burstPeriods = 1;
    AdmissionController controller(config);
    controller.beginPeriod();
    EXPECT_EQ(controller.offer(TenantClass::Free, false),
              AdmissionDecision::Admitted);
    // Bucket empty: a fresh offer defers, a deferred one rejects.
    EXPECT_EQ(controller.offer(TenantClass::Free, false),
              AdmissionDecision::Deferred);
    EXPECT_EQ(controller.offer(TenantClass::Free, true),
              AdmissionDecision::Rejected);
    const auto &totals = controller.totals();
    EXPECT_EQ(totals.offered, 3u);
    EXPECT_EQ(totals.admitted, 1u);
    EXPECT_EQ(totals.deferred, 1u);
    EXPECT_EQ(totals.rejected, 1u);
}

TEST(Admission, RefillClampsToBurst)
{
    TokenBucket bucket(2, 4);
    EXPECT_EQ(bucket.tokens(), 4u);
    EXPECT_TRUE(bucket.tryTake());
    bucket.refill();
    EXPECT_EQ(bucket.tokens(), 4u); // 3 + 2 clamped to burst
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bucket.tryTake());
    EXPECT_FALSE(bucket.tryTake());
}

// ---- Tenant population ---------------------------------------------

TEST(Tenants, DemandIsPureInSeedTenantAndPeriod)
{
    TenantPopulation::Config config;
    config.tenants = 50;
    const TenantPopulation a(config);
    const TenantPopulation b(config);
    for (std::uint64_t t : {0ull, 7ull, 49ull}) {
        EXPECT_EQ(a.materializePeriod(t, 3),
                  b.materializePeriod(t, 3));
        EXPECT_EQ(a.materializePeriod(t, 3).size(),
                  config.periodSamples);
    }
    // Different period, different draw.
    EXPECT_NE(a.materializePeriod(0, 3), a.materializePeriod(0, 4));
}

TEST(Tenants, ClassTiersFollowRank)
{
    TenantPopulation::Config config;
    config.tenants = 1000;
    const TenantPopulation pop(config);
    EXPECT_EQ(pop.classOf(0), TenantClass::Reserved);
    EXPECT_EQ(pop.classOf(9), TenantClass::Reserved);  // top 1%
    EXPECT_EQ(pop.classOf(10), TenantClass::Standard); // next 9%
    EXPECT_EQ(pop.classOf(99), TenantClass::Standard);
    EXPECT_EQ(pop.classOf(100), TenantClass::Free);
    EXPECT_EQ(pop.classOf(999), TenantClass::Free);
}

TEST(Tenants, TinyPopulationStillHasAReservedTenant)
{
    TenantPopulation::Config config;
    config.tenants = 3;
    const TenantPopulation pop(config);
    EXPECT_EQ(pop.classOf(0), TenantClass::Reserved);
}

TEST(Tenants, BatchIntervalGrowsWithRankAndClamps)
{
    TenantPopulation::Config config;
    config.tenants = 100000;
    config.maxBatchPeriods = 8;
    const TenantPopulation pop(config);
    EXPECT_EQ(pop.batchPeriods(0), 1u);
    std::uint32_t last = 1;
    for (std::uint64_t t = 1; t < 100000; t *= 4) {
        const std::uint32_t interval = pop.batchPeriods(t);
        EXPECT_GE(interval, last);
        EXPECT_LE(interval, 8u);
        last = interval;
    }
    EXPECT_EQ(pop.batchPeriods(99999), 8u);
}

TEST(Tenants, BatchesTileThePeriodAxisExactly)
{
    TenantPopulation::Config config;
    config.tenants = 64;
    const TenantPopulation pop(config);
    // Summing every batch's covered periods over a long horizon must
    // cover each period at most once per tenant and, past the first
    // interval, exactly once: admission aside, no telemetry is ever
    // double-counted or skipped.
    for (std::uint64_t t : {0ull, 5ull, 40ull, 63ull}) {
        const std::uint32_t interval = pop.batchPeriods(t);
        std::vector<int> covered(64, 0);
        for (std::uint64_t p = 0; p < 64 + interval; ++p) {
            if (!pop.pushesAt(t, p))
                continue;
            const BatchRef batch = pop.batchAt(t, p);
            EXPECT_EQ(batch.tenant, t);
            EXPECT_LE(batch.coveredPeriods, interval);
            for (std::uint32_t k = 1; k <= batch.coveredPeriods; ++k)
                if (batch.period - k < 64)
                    ++covered[batch.period - k];
        }
        for (std::size_t p = interval; p < 64; ++p)
            EXPECT_EQ(covered[p], 1) << "tenant " << t << " period "
                                     << p;
    }
}

TEST(Tenants, HeavierRanksCarryMoreBaseUnits)
{
    TenantPopulation::Config config;
    config.tenants = 100;
    const TenantPopulation pop(config);
    EXPECT_GT(pop.baseUnits(0), pop.baseUnits(50));
    EXPECT_GE(pop.baseUnits(99), 1u); // floor of one unit
}

/** The per-sample demand formula with the diurnal carrier computed
 *  inline, one std::sin per sample — the reference the shared-carrier
 *  kernel must reproduce bit for bit. */
std::vector<std::uint64_t>
inlineCarrierPeriod(const TenantPopulation &pop, std::uint64_t tenant,
                    std::uint64_t period)
{
    constexpr double kDiurnalPeriods = 24.0;
    constexpr double kPi = 3.14159265358979323846;
    Rng rng = Rng(pop.config().seed).fork(tenant).fork(period + 1);
    const std::uint64_t base = pop.baseUnits(tenant);
    const std::size_t samples = pop.config().periodSamples;
    std::vector<std::uint64_t> out(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        const double phase =
            (static_cast<double>(period) +
             static_cast<double>(s) / static_cast<double>(samples)) /
            kDiurnalPeriods;
        const double diurnal = 1.0 + 0.5 * std::sin(2.0 * kPi * phase);
        const double jitter = 0.75 + 0.5 * rng.uniform();
        out[s] = static_cast<std::uint64_t>(std::llround(
            static_cast<double>(base) * diurnal * jitter));
    }
    return out;
}

TEST(Tenants, SharedCarrierKernelIsBitIdenticalToInlineFormula)
{
    for (std::uint64_t seed : {1ull, 42ull, 0x9e3779b97f4a7c15ull}) {
        TenantPopulation::Config config;
        config.tenants = 1000;
        config.seed = seed;
        const TenantPopulation pop(config);
        for (std::uint64_t period :
             {0ull, 1ull, 23ull, 24ull, 1000ull, 1ull << 20}) {
            const std::vector<double> carrier =
                pop.diurnalCarrier(period);
            ASSERT_EQ(carrier.size(), config.periodSamples);
            for (std::uint64_t t = 0; t < config.tenants; ++t) {
                const std::vector<std::uint64_t> want =
                    inlineCarrierPeriod(pop, t, period);
                ASSERT_EQ(pop.materializePeriod(t, period), want)
                    << "seed " << seed << " tenant " << t
                    << " period " << period;

                std::vector<std::uint64_t> zeroed(want.size(), 0);
                std::uint64_t total = 0;
                for (std::uint64_t units : want)
                    total += units;
                ASSERT_EQ(pop.accumulatePeriod(t, period, carrier,
                                               zeroed),
                          total);
                ASSERT_EQ(zeroed, want);

                // Accumulation adds on top of what is already there.
                std::vector<std::uint64_t> filled(want.size());
                for (std::size_t s = 0; s < filled.size(); ++s)
                    filled[s] = 1000 * t + s;
                ASSERT_EQ(pop.accumulatePeriod(t, period, carrier,
                                               filled),
                          total);
                for (std::size_t s = 0; s < filled.size(); ++s)
                    ASSERT_EQ(filled[s], 1000 * t + s + want[s]);
            }
        }
    }
}

// ---- Server contracts ----------------------------------------------

TEST(Server, ValidatesItsConfig)
{
    ServerConfig bad = smallConfig();
    bad.shards = 0;
    EXPECT_THROW(SignalServer{bad}, std::invalid_argument);
    bad = smallConfig();
    bad.shards = kMaxShards + 1;
    EXPECT_THROW(SignalServer{bad}, std::invalid_argument);
    bad = smallConfig();
    bad.durationPeriods = 0;
    EXPECT_THROW(SignalServer{bad}, std::invalid_argument);
}

TEST(Server, RunIsSingleShot)
{
    SignalServer server(smallConfig());
    server.run();
    EXPECT_THROW(server.run(), std::logic_error);
}

TEST(Server, PublishesOncePerClosedWindowPeriod)
{
    const ServerConfig config = smallConfig();
    SignalServer server(config);
    const ServerReport report = server.run();
    EXPECT_EQ(report.periodsClosed, config.durationPeriods);
    // The first window publishes once warm, then every close.
    EXPECT_EQ(report.publishes,
              config.durationPeriods - config.windowPeriods + 1);
    EXPECT_EQ(report.publishedIntensity.size(), report.publishes);
    EXPECT_EQ(server.publishes(), report.publishes);
    EXPECT_GT(report.attributedGrams, 0.0);
    const ServerSnapshot snap = server.snapshot();
    EXPECT_EQ(snap.version, report.publishes);
    EXPECT_EQ(snap.shards, config.shards);
    EXPECT_DOUBLE_EQ(snap.fleetIntensity,
                     report.publishedIntensity.back());
}

TEST(Server, SignalIsBitIdenticalAcrossShardAndThreadCounts)
{
    ServerConfig config = smallConfig();
    std::vector<double> reference;
    std::uint64_t reference_signature = 0;
    for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
            const ScopedThreads scoped(threads);
            config.shards = shards;
            SignalServer server(config);
            const ServerReport report = server.run();
            if (reference.empty()) {
                reference = report.publishedIntensity;
                reference_signature = report.signalSignature();
                ASSERT_FALSE(reference.empty());
                continue;
            }
            EXPECT_EQ(report.publishedIntensity, reference)
                << "shards=" << shards << " threads=" << threads;
            EXPECT_EQ(report.signalSignature(), reference_signature);
        }
    }
}

TEST(Server, SingleShardSignalEqualsFleetSignal)
{
    ServerConfig config = smallConfig();
    config.shards = 1;
    SignalServer server(config);
    server.run();
    const ServerSnapshot snap = server.snapshot();
    EXPECT_DOUBLE_EQ(snap.shardIntensity[0], snap.fleetIntensity);
}

TEST(Server, CacheCorruptionRecoversToTheIdenticalSignal)
{
    const ServerConfig clean_config = smallConfig();
    SignalServer clean(clean_config);
    const ServerReport clean_report = clean.run();

    ServerConfig faulty_config = smallConfig();
    faulty_config.faultPlan =
        resilience::FaultPlan::parse("cache-corrupt=0.8");
    SignalServer faulty(faulty_config);
    const ServerReport faulty_report = faulty.run();

    EXPECT_GT(faulty_report.faultsInjected, 0u);
    EXPECT_GT(faulty_report.engineRebuilds, 0u);
    // Memoization is an optimization, never an input: the published
    // signal must not change under cache faults.
    EXPECT_EQ(faulty_report.publishedIntensity,
              clean_report.publishedIntensity);
    EXPECT_EQ(faulty_report.signalSignature(),
              clean_report.signalSignature());
}

TEST(Server, AdmissionPressureWalksTheOverloadLadder)
{
    ServerConfig config = smallConfig();
    config.admissionRate = 10; // far below the offered batch rate
    SignalServer server(config);
    const ServerReport report = server.run();
    EXPECT_GT(report.overloadEscalations, 0u);
    EXPECT_GT(report.batchesShed, 0u);
    EXPECT_GT(report.admission.deferred + report.admission.rejected,
              0u);
    // Overload changes what telemetry gets in, so the signal should
    // genuinely differ from the unlimited run.
    SignalServer unlimited(smallConfig());
    EXPECT_NE(report.signalSignature(),
              unlimited.run().signalSignature());
}

TEST(Server, SnapshotReadersAreSafeDuringTheRun)
{
    ServerConfig config = smallConfig();
    config.tenants = 400;
    config.durationPeriods = 40;
    SignalServer server(config);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<bool> ok{true};
    std::thread reader([&] {
        std::uint64_t last_version = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const ServerSnapshot snap = server.snapshot();
            // Versions never go backwards, and a published snapshot
            // is internally consistent.
            if (snap.version < last_version)
                ok.store(false);
            if (snap.version > 0 && snap.shards != config.shards)
                ok.store(false);
            last_version = snap.version;
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    const ServerReport report = server.run();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_TRUE(ok.load());
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(server.snapshot().version, report.publishes);
    EXPECT_DOUBLE_EQ(server.currentIntensity(),
                     report.publishedIntensity.back());
}

} // namespace
} // namespace fairco2::server
