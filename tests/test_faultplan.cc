/**
 * @file
 * Tests for deterministic fault injection: every decision must be a
 * pure function of (plan seed, site, index) — independent of thread
 * count and query order — and malformed specs must fail loudly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "resilience/faultplan.hh"
#include "trace/timeseries.hh"

namespace fairco2::resilience
{
namespace
{

TEST(FaultPlan, DefaultPlanIsInactive)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.fires(FaultSite::TelemetryDrop, 0));
    EXPECT_LT(plan.vmPreemptionFraction(0), 0.0);
    EXPECT_LT(plan.nodeFailureTime(0, 1000.0), 0.0);
}

TEST(FaultPlan, ParsesFullSpec)
{
    const auto plan = FaultPlan::parse(
        "seed=42,drop=0.01,corrupt=0.005,nan=0.001,"
        "node-fail=0.02,vm-preempt=0.01");
    EXPECT_TRUE(plan.active());
    EXPECT_DOUBLE_EQ(plan.dropProbability(), 0.01);
    EXPECT_DOUBLE_EQ(plan.corruptProbability(), 0.005);
    EXPECT_DOUBLE_EQ(plan.nanProbability(), 0.001);
    EXPECT_DOUBLE_EQ(plan.nodeFailProbability(), 0.02);
    EXPECT_DOUBLE_EQ(plan.vmPreemptProbability(), 0.01);
}

TEST(FaultPlan, MalformedSpecsThrow)
{
    EXPECT_THROW(FaultPlan::parse("drop=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=-0.1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=0.1x"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("bogus-key=0.1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("drop=nan"),
                 std::invalid_argument);
}

TEST(FaultPlan, DecisionsAreReproducible)
{
    const auto a = FaultPlan::parse("seed=7,drop=0.3,corrupt=0.2");
    const auto b = FaultPlan::parse("seed=7,drop=0.3,corrupt=0.2");
    for (std::uint64_t i = 0; i < 2000; ++i) {
        ASSERT_EQ(a.fires(FaultSite::TelemetryDrop, i),
                  b.fires(FaultSite::TelemetryDrop, i));
        ASSERT_EQ(a.fires(FaultSite::IngestCorrupt, i),
                  b.fires(FaultSite::IngestCorrupt, i));
    }
}

TEST(FaultPlan, SeedChangesThePattern)
{
    const auto a = FaultPlan::parse("seed=1,drop=0.5");
    const auto b = FaultPlan::parse("seed=2,drop=0.5");
    std::size_t differing = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        if (a.fires(FaultSite::TelemetryDrop, i) !=
            b.fires(FaultSite::TelemetryDrop, i))
            ++differing;
    }
    EXPECT_GT(differing, 100u);
}

TEST(FaultPlan, SitesAreIndependentStreams)
{
    const auto plan = FaultPlan::parse("seed=9,drop=0.5,corrupt=0.5");
    std::size_t differing = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        if (plan.fires(FaultSite::TelemetryDrop, i) !=
            plan.fires(FaultSite::TelemetryCorrupt, i))
            ++differing;
    }
    EXPECT_GT(differing, 100u);
}

TEST(FaultPlan, ProbabilityExtremes)
{
    const auto always = FaultPlan::parse("drop=1");
    const auto never = FaultPlan::parse("corrupt=1"); // drop stays 0
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_TRUE(always.fires(FaultSite::TelemetryDrop, i));
        EXPECT_FALSE(never.fires(FaultSite::TelemetryDrop, i));
    }
}

TEST(FaultPlan, HitRateTracksProbability)
{
    const auto plan = FaultPlan::parse("seed=3,drop=0.25");
    std::size_t hits = 0;
    constexpr std::uint64_t kSamples = 20000;
    for (std::uint64_t i = 0; i < kSamples; ++i)
        hits += plan.fires(FaultSite::TelemetryDrop, i) ? 1 : 0;
    const double rate =
        static_cast<double>(hits) / static_cast<double>(kSamples);
    EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultPlan, DecisionsMatchUnderParallelQuery)
{
    // Same decisions whether queried serially or from a parallel
    // loop — the whole point of counter-based derivation.
    const auto plan = FaultPlan::parse("seed=11,drop=0.4");
    constexpr std::size_t kN = 4096;
    std::vector<char> serial(kN), parallel_result(kN);
    for (std::size_t i = 0; i < kN; ++i)
        serial[i] = plan.fires(FaultSite::TelemetryDrop, i) ? 1 : 0;

    const std::size_t saved = parallel::threadCount();
    parallel::setThreadCount(8);
    parallel::parallelFor(
        std::size_t{0}, kN, std::size_t{64},
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                parallel_result[i] =
                    plan.fires(FaultSite::TelemetryDrop, i) ? 1 : 0;
        });
    parallel::setThreadCount(saved);
    EXPECT_EQ(serial, parallel_result);
}

TEST(FaultPlan, DrawStaysInRange)
{
    const auto plan = FaultPlan::parse("seed=5,drop=0.5");
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const double v =
            plan.draw(FaultSite::CorruptValue, i, -2.0, 2.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 2.0);
    }
}

TEST(FaultPlan, VmPreemptionFractionRange)
{
    const auto plan = FaultPlan::parse("seed=5,vm-preempt=1");
    for (std::uint64_t vm = 0; vm < 500; ++vm) {
        const double f = plan.vmPreemptionFraction(vm);
        EXPECT_GE(f, 0.05);
        EXPECT_LT(f, 0.95);
    }
}

TEST(FaultPlan, NodeFailureTimeRange)
{
    const auto plan = FaultPlan::parse("seed=5,node-fail=1");
    constexpr double kHorizon = 604800.0;
    for (std::size_t node = 0; node < 500; ++node) {
        const double t = plan.nodeFailureTime(node, kHorizon);
        EXPECT_GE(t, 0.0);
        EXPECT_LT(t, kHorizon);
    }
}

TEST(FaultPlan, TelemetryInjectionIsDeterministic)
{
    const auto plan =
        FaultPlan::parse("seed=21,drop=0.1,corrupt=0.1");
    std::vector<double> a(2000, 5.0), b(2000, 5.0);
    const auto injected_a = injectTelemetryFaults(a, plan);
    const auto injected_b = injectTelemetryFaults(b, plan);
    EXPECT_EQ(injected_a, injected_b);
    EXPECT_GT(injected_a, 0u);
    std::size_t nan_count = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE((std::isnan(a[i]) && std::isnan(b[i])) ||
                    a[i] == b[i]);
        nan_count += std::isnan(a[i]) ? 1 : 0;
    }
    EXPECT_GT(nan_count, 0u); // drops became NaN
}

TEST(FaultPlan, InjectedCountAccumulates)
{
    const auto plan = FaultPlan::parse("seed=21,drop=0.5");
    EXPECT_EQ(plan.injectedCount(), 0u);
    std::vector<double> values(100, 1.0);
    const auto injected = injectTelemetryFaults(values, plan);
    EXPECT_EQ(plan.injectedCount(), injected);
}

TEST(FaultPlan, BoundaryNanInjection)
{
    const auto plan = FaultPlan::parse("seed=4,nan=1");
    std::vector<double> values(50, 1.0);
    const auto injected = injectBoundaryNans(values, plan);
    EXPECT_EQ(injected, values.size());
    for (double v : values)
        EXPECT_TRUE(std::isnan(v));
}

TEST(FaultPlan, CopyKeepsDecisionsAndSpec)
{
    const auto plan = FaultPlan::parse("seed=13,drop=0.5");
    const FaultPlan copy = plan;
    EXPECT_EQ(copy.spec(), plan.spec());
    for (std::uint64_t i = 0; i < 200; ++i)
        ASSERT_EQ(copy.fires(FaultSite::TelemetryDrop, i),
                  plan.fires(FaultSite::TelemetryDrop, i));
}

TEST(FaultPlanDeathTest, BadFlagValueExits)
{
    EXPECT_EXIT(applyFaultPlanFlag("drop=2.0"),
                ::testing::ExitedWithCode(2), "fault-plan");
}

TEST(FaultPlan, EmptyFlagValueStaysInactive)
{
    EXPECT_FALSE(applyFaultPlanFlag("").active());
}

TEST(FaultPlan, KeptSitesDecideAsBefore)
{
    // A site's number is part of every decision's identity. These
    // bits were captured before sites 11-14 and 16 were deleted; any
    // renumbering or stream change shows up here.
    const auto plan = FaultPlan::parse(
        "seed=42,drop=0.3,corrupt=0.3,nan=0.3,node-fail=0.3,"
        "vm-preempt=0.3,cache-corrupt=0.3");
    const struct
    {
        FaultSite site;
        std::uint64_t fires;     //!< bit i: fires(site, i)
        std::uint64_t drawBits;  //!< draw(site, 7, 0, 1)
    } pins[] = {
        {FaultSite::TelemetryDrop, 0x508ad244d1574200ULL,
         0x3fdb207a3400f78eULL},
        {FaultSite::TelemetryCorrupt, 0x00d48325a3a0083cULL,
         0x3fe011e147651008ULL},
        {FaultSite::IngestDrop, 0x00808580598a0441ULL,
         0x3fd5783fb72126aaULL},
        {FaultSite::IngestCorrupt, 0x392309182a8c854bULL,
         0x3fe8d4388a9fab6fULL},
        {FaultSite::NanBoundary, 0x1640650598503864ULL,
         0x3fec49bdc0d92095ULL},
        {FaultSite::NodeFail, 0x5f22304212c10001ULL,
         0x3fe2e5ba2ba7fa69ULL},
        {FaultSite::NodeFailTime, 0, 0x3feb30a7ee214651ULL},
        {FaultSite::VmPreempt, 0x580404115c202ab0ULL,
         0x3fd0286af76fcd50ULL},
        {FaultSite::VmPreemptTime, 0, 0x3fd852a5e942eb68ULL},
        {FaultSite::CorruptValue, 0, 0x3fe0b6979f5b4a76ULL},
        {FaultSite::CacheCorrupt, 0x004e024d85080100ULL,
         0x3fe444949e32846eULL},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE("site " +
                     std::to_string(static_cast<int>(pin.site)));
        std::uint64_t fires = 0;
        for (std::uint64_t i = 0; i < 64; ++i)
            if (plan.fires(pin.site, i))
                fires |= std::uint64_t{1} << i;
        EXPECT_EQ(fires, pin.fires);
        const double draw = plan.draw(pin.site, 7, 0.0, 1.0);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &draw, sizeof(bits));
        EXPECT_EQ(bits, pin.drawBits);
    }
    EXPECT_EQ(static_cast<int>(FaultSite::CacheCorrupt), 15);
}

TEST(FaultPlan, DeletedKeysAreRejectedByName)
{
    for (const char *key : {"stage-crash", "stage-stall",
                            "stage-timeout", "primary-crash"}) {
        try {
            FaultPlan::parse(std::string(key) + "=0.1");
            ADD_FAILURE() << key << " still parses";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what())
                          .find(std::string("unknown fault-plan key '") +
                                key + "'"),
                      std::string::npos)
                << error.what();
        }
    }
}

} // namespace
} // namespace fairco2::resilience
