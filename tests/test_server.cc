/**
 * @file
 * Tests for the sharded live-signal server: Zipf weights, the
 * deterministic event loop, token-bucket admission, tenant-demand
 * purity, the shared-carrier kernel's bit-identity and its inline
 * round, the batched (AVX2) materialization kernel against the scalar
 * reference, the replica's cached push schedule, and the server's
 * headline contracts — the published fleet signal is bit-identical
 * across shard and thread counts, survives injected cache corruption
 * unchanged, degrades under admission overload, and stays readable
 * from concurrent wait-free snapshot readers while the run is in
 * flight.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "resilience/faultplan.hh"
#include "server/admission.hh"
#include "server/eventloop.hh"
#include "server/replica.hh"
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

TEST(Tenants, InlineRoundMatchesLlround)
{
    // roundUnits() replaces std::llround in the materialization
    // kernel; over [0, 2^52) it must agree on every double, including
    // the halfway cases and the largest double below one half (which
    // floor(x + 0.5) rounds up).
    const auto expectSame = [](double x) {
        ASSERT_EQ(roundUnits(x),
                  static_cast<std::uint64_t>(std::llround(x)))
            << std::hexfloat << x;
    };
    expectSame(0.0);
    expectSame(0.49999999999999994);
    for (double k = 0.0; k < 4096.0; k += 1.0) {
        expectSame(k + 0.5);
        expectSame(std::nextafter(k + 0.5, 0.0));
    }
    for (int bits = 12; bits < 52; ++bits) {
        const double k = std::ldexp(1.0, bits);
        for (double x : {k - 1.0, k, k + 1.0}) {
            expectSame(x + 0.5);
            expectSame(std::nextafter(x + 0.5, 0.0));
        }
    }
    const double two52 = std::ldexp(1.0, 52);
    expectSame(two52 - 0.5);
    expectSame(two52);
    expectSame(two52 + 1.0);
    Rng rng(2052);
    const double two50 = std::ldexp(1.0, 50);
    for (int i = 0; i < 1000000; ++i)
        expectSame(rng.uniform() * two50);
}

TEST(Tenants, MeanDemandAboveTheExactRoundingBoundIsRejected)
{
    TenantPopulation::Config config;
    config.meanDemandUnits = kMaxMeanDemandUnits;
    EXPECT_NO_THROW(TenantPopulation{config});
    config.meanDemandUnits = kMaxMeanDemandUnits + 1;
    try {
        TenantPopulation population(config);
        FAIL() << "meanDemandUnits above 2^50 was accepted";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("meanDemandUnits"),
                  std::string::npos)
            << error.what();
    }
}

TEST(TenantsDeathTest, AccumulateRejectsSpansOfTheWrongLength)
{
    // A span shorter than periodSamples would be written past its
    // end; the kernel's assertion, which this repository keeps in
    // optimized builds, stops that.
    TenantPopulation::Config config;
    config.tenants = 10;
    const TenantPopulation pop(config);
    const std::vector<double> carrier = pop.diurnalCarrier(3);
    std::vector<std::uint64_t> out(config.periodSamples, 0);
    std::vector<std::uint64_t> shortOut(config.periodSamples - 1, 0);
    const std::vector<double> shortCarrier(carrier.begin() + 1,
                                           carrier.end());
    EXPECT_DEATH(pop.accumulatePeriod(1, 3, carrier, shortOut),
                 "out.size\\(\\) == samples");
    EXPECT_DEATH(pop.accumulatePeriod(1, 3, shortCarrier, out),
                 "carrier.size\\(\\) == samples");
}

// ---- The batched materialization kernel (ctest label `kernel`) ----

/**
 * accumulateTenants() on @p kernel against accumulatePeriod() per
 * tenant, bit for bit in `out` and in the returned total: lists of 0-9
 * tenants (every tail length, repeats included) over periods 0-47,
 * several seeds, period lengths around and past the kernel's lane and
 * stack boundaries, and mean demands from 1 unit up to
 * kMaxMeanDemandUnits, where halfway samples are common.
 */
void
expectKernelMatchesPerTenantAccumulation(TenantKernel kernel)
{
    const std::uint64_t max_mean = kMaxMeanDemandUnits;
    for (std::uint64_t seed : {3ull, 42ull, 0x9e3779b97f4a7c15ull}) {
        for (std::size_t samples : {1u, 3u, 12u, 13u, 60u, 100u}) {
            for (std::uint64_t mean :
                 {std::uint64_t{1}, std::uint64_t{1} << 20, max_mean}) {
                TenantPopulation::Config config;
                config.tenants = 40;
                config.seed = seed;
                config.periodSamples = samples;
                config.meanDemandUnits = mean;
                const TenantPopulation pop(config);
                Rng pick(seed ^ samples ^ mean);
                for (std::uint64_t period = 0; period < 48; ++period) {
                    const std::vector<double> carrier =
                        pop.diurnalCarrier(period);
                    for (std::size_t n = 0; n < 10; ++n) {
                        std::vector<std::uint64_t> tenants(n);
                        for (std::uint64_t &tenant : tenants)
                            tenant = pick.index(config.tenants);
                        std::vector<std::uint64_t> want(samples);
                        for (std::size_t s = 0; s < samples; ++s)
                            want[s] = 7 * s + n;
                        std::vector<std::uint64_t> got = want;
                        std::uint64_t want_total = 0;
                        for (std::uint64_t tenant : tenants)
                            want_total += pop.accumulatePeriod(
                                tenant, period, carrier, want);
                        const std::uint64_t got_total =
                            pop.accumulateTenants(period, carrier,
                                                  tenants, got, kernel);
                        ASSERT_EQ(got, want)
                            << "seed " << seed << " samples " << samples
                            << " mean " << mean << " period " << period
                            << " tenants " << n;
                        ASSERT_EQ(got_total, want_total)
                            << "seed " << seed << " samples " << samples
                            << " mean " << mean << " period " << period
                            << " tenants " << n;
                    }
                }
            }
        }
    }
}

TEST(Tenants, KernelScalarMatchesPerTenantAccumulation)
{
    expectKernelMatchesPerTenantAccumulation(TenantKernel::Scalar);
}

TEST(Tenants, KernelAvx2MatchesScalarBitForBit)
{
    if (bestTenantKernel() != TenantKernel::Avx2)
        GTEST_SKIP() << "this build or CPU has no AVX2; the scalar "
                        "kernel is the one in use";
    expectKernelMatchesPerTenantAccumulation(TenantKernel::Avx2);
}

TEST(Tenants, KernelAvx2MatchesScalarOverAWholePopulation)
{
    if (bestTenantKernel() != TenantKernel::Avx2)
        GTEST_SKIP() << "this build or CPU has no AVX2; the scalar "
                        "kernel is the one in use";
    // Long lists: every tenant of a 1001-tenant population at once.
    TenantPopulation::Config config;
    config.tenants = 1001;
    const TenantPopulation pop(config);
    std::vector<std::uint64_t> tenants(config.tenants);
    std::iota(tenants.begin(), tenants.end(), 0);
    for (std::uint64_t period : {0ull, 5ull, 1ull << 20}) {
        const std::vector<double> carrier = pop.diurnalCarrier(period);
        std::vector<std::uint64_t> scalar(config.periodSamples, 0);
        std::vector<std::uint64_t> lanes(config.periodSamples, 0);
        EXPECT_EQ(pop.accumulateTenants(period, carrier, tenants, lanes,
                                        TenantKernel::Avx2),
                  pop.accumulateTenants(period, carrier, tenants, scalar,
                                        TenantKernel::Scalar));
        EXPECT_EQ(lanes, scalar) << "period " << period;
    }
}

TEST(Tenants, KernelLaneStreamsEqualRng)
{
    if (bestTenantKernel() != TenantKernel::Avx2)
        GTEST_SKIP() << "this build or CPU has no AVX2; the scalar "
                        "kernel is the one in use";
    // Seeds as the kernel derives them (fork chains) and bare ones.
    const std::uint64_t seeds[4] = {
        Rng::forkSeed(Rng::forkSeed(42, 0), 1),
        Rng::forkSeed(Rng::forkSeed(42, 99999), 48), 0, ~0ull};
    constexpr std::size_t kDraws = 200;
    std::vector<std::uint64_t> raw(4 * kDraws);
    std::vector<double> uniform(4 * kDraws);
    avx2LaneDraws(seeds, raw, uniform);
    for (std::size_t lane = 0; lane < 4; ++lane) {
        Rng next_stream(seeds[lane]);
        Rng uniform_stream(seeds[lane]);
        for (std::size_t d = 0; d < kDraws; ++d) {
            ASSERT_EQ(raw[4 * d + lane], next_stream.next())
                << "lane " << lane << " draw " << d;
            const double want = uniform_stream.uniform();
            ASSERT_EQ(std::memcmp(&uniform[4 * d + lane], &want,
                                  sizeof(double)),
                      0)
                << "lane " << lane << " draw " << d;
        }
    }
}

TEST(TenantsDeathTest, KernelRejectsSpansOfTheWrongLength)
{
    TenantPopulation::Config config;
    config.tenants = 10;
    const TenantPopulation pop(config);
    const std::vector<double> carrier = pop.diurnalCarrier(3);
    const std::vector<std::uint64_t> tenants{1, 2, 3, 4, 5};
    std::vector<std::uint64_t> shortOut(config.periodSamples - 1, 0);
    EXPECT_DEATH(pop.accumulateTenants(3, carrier, tenants, shortOut),
                 "out.size\\(\\) == config_.periodSamples");
}

/** The population a server with @p config builds. */
TenantPopulation::Config
populationConfig(const ServerConfig &config)
{
    TenantPopulation::Config pc;
    pc.tenants = config.tenants;
    pc.zipfS = config.zipfS;
    pc.seed = config.seed;
    pc.periodSamples = config.periodSamples;
    pc.maxBatchPeriods = config.maxBatchPeriods;
    pc.meanDemandUnits = config.meanDemandUnits;
    return pc;
}

/** Every batch the population offers at @p period, in rank order,
 *  straight from pushesAt() and batchAt(). */
std::vector<durability::WalBatch>
scheduledBatches(const TenantPopulation &pop, std::uint64_t period)
{
    std::vector<durability::WalBatch> batches;
    for (std::uint64_t t = 0; t < pop.size(); ++t) {
        if (!pop.pushesAt(t, period))
            continue;
        const BatchRef batch = pop.batchAt(t, period);
        if (batch.coveredPeriods == 0)
            continue;
        durability::WalBatch want;
        want.tenant = batch.tenant;
        want.period = batch.period;
        want.coveredPeriods = batch.coveredPeriods;
        batches.push_back(want);
    }
    return batches;
}

class ReplicaSchedule : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ReplicaSchedule, LiveArrivalsOfferThePopulationScheduleInRankOrder)
{
    // Under unlimited admission every offer is admitted, so each live
    // arrival tick's admitted list must be the population's schedule
    // exactly: the replica's cached push table may not add, drop or
    // reorder a batch. Periods [0, 1680] run every cadence up to 8
    // through two full cycles (lcm(1..8) = 840).
    ServerConfig config;
    config.tenants = 100000;
    config.shards = 4;
    config.admissionRate = 0;
    config.maxBatchPeriods = GetParam();
    config.durationPeriods = 1681;
    config.windowPeriods = 2;
    config.periodSamples = 1;
    const TenantPopulation population(populationConfig(config));
    // Only a close tick drains the shard inboxes, so each block of
    // periods gets a fresh replica; the block's references are
    // independent and fill in parallel.
    constexpr std::uint64_t kBlock = 8;
    for (std::uint64_t first = 0; first < config.durationPeriods;
         first += kBlock) {
        const std::uint64_t count =
            std::min(kBlock, config.durationPeriods - first);
        std::vector<std::vector<durability::WalBatch>> want(count);
        parallel::parallelFor(0, count, 1, [&](std::size_t lo,
                                               std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                want[i] = scheduledBatches(population, first + i);
        });
        Replica replica(config, population);
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t p = first + i;
            const durability::WalTickRecord record =
                replica.applyArrivalsLive(p);
            ASSERT_EQ(record.admitted.size(), want[i].size())
                << "period " << p;
            ASSERT_TRUE(record.admitted == want[i]) << "period " << p;
            ASSERT_TRUE(record.deferredOut.empty()) << "period " << p;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(MaxBatchPeriods, ReplicaSchedule,
                         ::testing::Values(1u, 8u, 64u));

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
