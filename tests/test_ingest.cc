/**
 * @file
 * Tests for hardened ingestion: strict parsing, the three bad-row
 * policies, fault-plan-injected defects, and in-memory repair.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "resilience/faultplan.hh"
#include "resilience/ingest.hh"

namespace fairco2::resilience
{
namespace
{

CsvTable
table(std::vector<std::vector<std::string>> rows)
{
    CsvTable t;
    t.header = {"t", "demand"};
    t.rows = std::move(rows);
    return t;
}

TEST(Ingest, CleanColumnPassesUntouched)
{
    const auto t = table({{"0", "1.5"}, {"1", "2.5"}, {"2", "3.5"}});
    IngestReport report;
    const auto values = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Fail, nullptr, &report, "clean");
    EXPECT_EQ(values, (std::vector<double>{1.5, 2.5, 3.5}));
    EXPECT_EQ(report.rowsTotal, 3u);
    EXPECT_EQ(report.rowsBad, 0u);
}

/** A day of 300 s demand samples as a `t,demand` CSV. */
std::string
dayCsv(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << "t,demand\n";
    for (int i = 0; i < 288; ++i)
        out << i << "," << 100 + (i * 37) % 23 << "\n";
    return path;
}

TEST(Ingest, BoundaryNansMeetTheBadRowPolicy)
{
    // `nan=P` poisons loaded values at the module boundary, after the
    // row-level drop/corrupt sites; the bad-row policy decides what
    // happens to them, and the report counts them.
    const std::string path = dayCsv("fairco2_ingest_nan.csv");
    const auto clean = loadSeriesColumn(path, "demand", 300.0,
                                        BadRowPolicy::Interpolate,
                                        nullptr, nullptr);
    ASSERT_EQ(clean.size(), 288u);

    const FaultPlan plan = FaultPlan::parse("seed=3,nan=0.5");
    std::size_t injected = 0;
    for (std::size_t i = 0; i < 288; ++i)
        injected += plan.fires(FaultSite::NanBoundary, i);
    ASSERT_GT(injected, 0u);
    IngestReport report;
    const auto repaired = loadSeriesColumn(
        path, "demand", 300.0, BadRowPolicy::Interpolate, &plan,
        &report);
    EXPECT_EQ(report.rowsTotal, 288u);
    EXPECT_EQ(report.rowsBad, injected);
    EXPECT_EQ(report.nonFinite, injected);
    EXPECT_EQ(report.repaired, injected);
    ASSERT_EQ(repaired.size(), clean.size());
    EXPECT_NE(repaired.values(), clean.values());
    for (double v : repaired.values())
        EXPECT_TRUE(std::isfinite(v));

    IngestReport none;
    const FaultPlan zero = FaultPlan::parse("seed=3,nan=0");
    const auto same = loadSeriesColumn(path, "demand", 300.0,
                                       BadRowPolicy::Interpolate, &zero,
                                       &none);
    EXPECT_EQ(0, std::memcmp(same.values().data(),
                             clean.values().data(),
                             288 * sizeof(double)));
    EXPECT_EQ(none.rowsBad, 0u);

    EXPECT_THROW(loadSeriesColumn(path, "demand", 300.0,
                                  BadRowPolicy::Fail, &plan, nullptr),
                 IngestError);
    std::remove(path.c_str());
}

TEST(Ingest, FailPolicyNamesRowAndCause)
{
    const auto t = table({{"0", "1.0"}, {"1", "garbage"}});
    try {
        numericColumnWithPolicy(t, "demand", BadRowPolicy::Fail,
                                nullptr, nullptr, "demand.csv:demand");
        FAIL() << "bad row was not rejected";
    } catch (const IngestError &error) {
        EXPECT_EQ(error.row(), 2u); // 1-based data row
        const std::string what = error.what();
        EXPECT_NE(what.find("demand.csv:demand"), std::string::npos);
        EXPECT_NE(what.find("row 2"), std::string::npos);
    }
}

TEST(Ingest, StrictParseRejectsTrailingGarbage)
{
    // "12x" must be a parse error, not 12 — partial std::stod
    // consumption is how corrupt telemetry sneaks through.
    const auto t = table({{"0", "12x"}});
    EXPECT_THROW(numericColumnWithPolicy(t, "demand",
                                         BadRowPolicy::Fail),
                 IngestError);
}

TEST(Ingest, NonFiniteCellsAreDefects)
{
    for (const char *bad : {"inf", "-inf", "nan"}) {
        const auto t = table({{"0", bad}});
        EXPECT_THROW(numericColumnWithPolicy(t, "demand",
                                             BadRowPolicy::Fail),
                     IngestError)
            << "cell: " << bad;
    }
}

TEST(Ingest, SkipDropsDefectiveRows)
{
    const auto t = table({{"0", "1.0"},
                          {"1", "oops"},
                          {"2", "3.0"},
                          {"3", ""},
                          {"4", "5.0"}});
    IngestReport report;
    const auto values = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Skip, nullptr, &report, "skip");
    EXPECT_EQ(values, (std::vector<double>{1.0, 3.0, 5.0}));
    EXPECT_EQ(report.rowsBad, 2u);
    EXPECT_EQ(report.parseErrors, 1u);
    EXPECT_EQ(report.missingCells, 1u);
    EXPECT_EQ(report.skipped, 2u);
}

TEST(Ingest, InterpolateRebuildsInteriorGaps)
{
    const auto t = table({{"0", "1.0"},
                          {"1", "bad"},
                          {"2", "bad"},
                          {"3", "4.0"}});
    IngestReport report;
    const auto values = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Interpolate, nullptr, &report,
        "interp");
    ASSERT_EQ(values.size(), 4u);
    EXPECT_DOUBLE_EQ(values[0], 1.0);
    EXPECT_DOUBLE_EQ(values[1], 2.0);
    EXPECT_DOUBLE_EQ(values[2], 3.0);
    EXPECT_DOUBLE_EQ(values[3], 4.0);
    EXPECT_EQ(report.repaired, 2u);
}

TEST(Ingest, InterpolateExtendsEdges)
{
    const auto t = table(
        {{"0", "x"}, {"1", "2.0"}, {"2", "3.0"}, {"3", "x"}});
    const auto values = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Interpolate);
    EXPECT_EQ(values, (std::vector<double>{2.0, 2.0, 3.0, 3.0}));
}

TEST(Ingest, InterpolateWithNoGoodSampleThrows)
{
    const auto t = table({{"0", "x"}, {"1", "y"}});
    EXPECT_THROW(numericColumnWithPolicy(t, "demand",
                                         BadRowPolicy::Interpolate),
                 IngestError);
}

TEST(Ingest, ShortRowsAreMissingCells)
{
    const auto t = table({{"0", "1.0"}, {"1"}, {"2", "3.0"}});
    IngestReport report;
    const auto values = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Interpolate, nullptr, &report);
    EXPECT_EQ(values, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(report.missingCells, 1u);
}

TEST(Ingest, FaultPlanInjectsDropsDeterministically)
{
    std::vector<std::vector<std::string>> rows;
    for (int i = 0; i < 200; ++i)
        rows.push_back({std::to_string(i), "10.0"});
    const auto t = table(std::move(rows));
    const auto plan = FaultPlan::parse("seed=6,drop=0.2");

    IngestReport first, second;
    const auto a = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Interpolate, &plan, &first);
    const auto b = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Interpolate, &plan, &second);
    EXPECT_EQ(a, b);
    EXPECT_GT(first.injectedDrops, 0u);
    EXPECT_EQ(first.injectedDrops, second.injectedDrops);
    EXPECT_EQ(first.repaired, first.injectedDrops);
    // Every sample was 10.0, so interpolation restores 10.0.
    for (double v : a)
        EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(Ingest, FaultPlanCorruptionCountsAsDefect)
{
    std::vector<std::vector<std::string>> rows;
    for (int i = 0; i < 200; ++i)
        rows.push_back({std::to_string(i), "10.0"});
    const auto t = table(std::move(rows));
    const auto plan = FaultPlan::parse("seed=6,corrupt=0.3");

    IngestReport report;
    const auto values = numericColumnWithPolicy(
        t, "demand", BadRowPolicy::Skip, &plan, &report);
    EXPECT_GT(report.injectedCorruptions, 0u);
    EXPECT_EQ(values.size(), 200u - report.injectedCorruptions);
    for (double v : values)
        EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(Ingest, LoadSeriesColumnRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "fairco2_ingest_roundtrip.csv";
    {
        std::ofstream out(path);
        out << "t,demand\n0,1.0\n1,broken\n2,3.0\n";
    }
    IngestReport report;
    const auto series = loadSeriesColumn(
        path, "demand", 300.0, BadRowPolicy::Interpolate, nullptr,
        &report);
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series[1], 2.0);
    EXPECT_DOUBLE_EQ(series.stepSeconds(), 300.0);
    EXPECT_EQ(report.rowsBad, 1u);
    std::remove(path.c_str());

    EXPECT_THROW(loadSeriesColumn(path, "demand", 300.0,
                                  BadRowPolicy::Fail),
                 std::runtime_error);
}

TEST(Ingest, RepairNonFiniteInterpolates)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values{1.0, nan, 3.0, inf, 5.0};
    IngestReport report;
    const auto repaired = repairNonFinite(
        values, BadRowPolicy::Interpolate, "mem", &report);
    EXPECT_EQ(repaired, 2u);
    EXPECT_EQ(values, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
    EXPECT_EQ(report.nonFinite, 2u);
}

TEST(Ingest, RepairNonFiniteSkipCompacts)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values{1.0, nan, 3.0};
    EXPECT_EQ(repairNonFinite(values, BadRowPolicy::Skip, "mem"), 1u);
    EXPECT_EQ(values, (std::vector<double>{1.0, 3.0}));
}

TEST(Ingest, RepairNonFiniteFailThrows)
{
    std::vector<double> values{
        1.0, std::numeric_limits<double>::quiet_NaN()};
    EXPECT_THROW(repairNonFinite(values, BadRowPolicy::Fail, "mem"),
                 IngestError);
}

TEST(Ingest, ReportMergeAndSummary)
{
    IngestReport a, b;
    a.rowsTotal = 10;
    a.rowsBad = 2;
    a.parseErrors = 1;
    a.repaired = 2;
    b.rowsTotal = 5;
    b.rowsBad = 1;
    b.nonFinite = 1;
    b.skipped = 1;
    a.merge(b);
    EXPECT_EQ(a.rowsTotal, 15u);
    EXPECT_EQ(a.rowsBad, 3u);
    EXPECT_EQ(a.parseErrors, 1u);
    EXPECT_EQ(a.nonFinite, 1u);
    EXPECT_EQ(a.repaired, 2u);
    EXPECT_EQ(a.skipped, 1u);
    EXPECT_FALSE(a.summary().empty());
}

TEST(Ingest, PolicyParsing)
{
    EXPECT_EQ(parseBadRowPolicy("fail"), BadRowPolicy::Fail);
    EXPECT_EQ(parseBadRowPolicy("skip"), BadRowPolicy::Skip);
    EXPECT_EQ(parseBadRowPolicy("interpolate"),
              BadRowPolicy::Interpolate);
    EXPECT_THROW(parseBadRowPolicy("explode"),
                 std::invalid_argument);
    EXPECT_STREQ(badRowPolicyName(BadRowPolicy::Interpolate),
                 "interpolate");
}

TEST(IngestDeathTest, BadPolicyFlagExits)
{
    EXPECT_EXIT(applyBadRowFlag("explode"),
                ::testing::ExitedWithCode(2), "on-bad-row");
}

} // namespace
} // namespace fairco2::resilience
