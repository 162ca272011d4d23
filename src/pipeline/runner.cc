#include "pipeline/runner.hh"

#include <algorithm>

#include "common/csv.hh"
#include "common/errors.hh"
#include "common/obs.hh"
#include "core/baselines.hh"
#include "forecast/forecaster.hh"
#include "resilience/faultplan.hh"

namespace fairco2::pipeline
{

namespace
{

/** Deterministic simulated cost of touching @p items data items. */
std::uint64_t
costMsFor(std::uint64_t items, std::uint64_t per_thousand,
          std::uint64_t floor_ms)
{
    return floor_ms + items * per_thousand / 1000;
}

} // namespace

PipelineResult
runAttributionPipeline(const PipelineConfig &config)
{
    FAIRCO2_SPAN("pipeline.run");
    PipelineResult result;
    Supervisor supervisor(config.supervisor);

    // --- stage 1: ingest -------------------------------------------
    const bool ingested = supervisor.runStage(
        "ingest", 0, [&](const StageAttempt &) {
            StageBodyResult r;
            if (!config.demandSeries.empty()) {
                // In-memory path still exercises the fault plan and
                // repair machinery, like loadSeriesColumn does.
                std::vector<double> values =
                    config.demandSeries.values();
                resilience::injectTelemetryFaults(
                    values, config.supervisor.faultPlan);
                resilience::repairNonFinite(
                    values, config.badRowPolicy,
                    "pipeline demand telemetry", &result.ingest);
                result.demand = trace::TimeSeries(
                    std::move(values),
                    config.demandSeries.stepSeconds());
            } else {
                result.demand = resilience::loadSeriesColumn(
                    config.demandPath, config.demandColumn,
                    config.stepSeconds, config.badRowPolicy,
                    &config.supervisor.faultPlan, &result.ingest);
            }
            if (!config.usageSeries.empty()) {
                result.consumers.clear();
                for (const auto &entry : config.usageSeries)
                    result.consumers.push_back(entry.first);
            } else if (!config.usagePath.empty()) {
                const auto table = readCsv(config.usagePath);
                result.consumers = table.header;
            }
            r.costMs = costMsFor(result.demand.size(), 20, 1);
            return r;
        });
    if (!ingested) {
        supervisor.skipStage("forecast", "ingest failed");
        supervisor.skipStage("shapley", "ingest failed");
        supervisor.skipStage("interference", "ingest failed");
        supervisor.skipStage("report", "ingest failed");
        supervisor.finalize(false);
        result.health = supervisor.health();
        return result;
    }

    // --- stage 2: forecast -----------------------------------------
    result.window = result.demand;
    if (config.horizonSteps == 0) {
        supervisor.skipStage("forecast", "no horizon configured");
    } else {
        supervisor.runStage(
            "forecast", 2, [&](const StageAttempt &a) {
                StageBodyResult r;
                forecast::SeasonalForecaster forecaster;
                if (a.level == 0) {
                    forecaster.fit(result.demand);
                    r.degraded = forecaster.degraded();
                    r.costMs =
                        costMsFor(result.demand.size(), 200, 5);
                } else if (a.level == 1) {
                    forecaster.fitNaive(result.demand);
                    r.degraded = true;
                    r.note = "seasonal-naive forecast";
                    r.costMs =
                        costMsFor(result.demand.size(), 20, 1);
                } else {
                    r.degraded = true;
                    r.note = "forecast skipped";
                    return r;
                }
                const auto horizon =
                    forecaster.forecast(config.horizonSteps);
                std::vector<double> values =
                    result.demand.values();
                values.insert(values.end(),
                              horizon.values().begin(),
                              horizon.values().end());
                result.window = trace::TimeSeries(
                    std::move(values),
                    result.demand.stepSeconds());
                return r;
            });
        // A Failed forecast stage (crashes all the way down the
        // ladder) leaves the window at the bare history — the run
        // proceeds; the health report carries the failure.
    }

    // --- stage 3: shapley ------------------------------------------
    // The optional incremental rung sits on top of the ladder; the
    // offset maps the supervisor's attempt level onto the shared rung
    // numbering (0 incremental, 1 exact, 2 sampled, 3 proportional)
    // so the bodies below stay identical with and without it.
    const bool incremental = config.incrementalWindowPeriods > 0;
    const std::uint32_t rung_offset = incremental ? 0 : 1;
    const std::uint32_t shapley_max_level =
        kShapleyMaxLevel + (incremental ? 1 : 0);
    // Periods are leaves of the per-period hierarchy shaped by the
    // splits below the top level.
    std::vector<std::size_t> inner_splits;
    if (config.splits.size() > 1)
        inner_splits.assign(config.splits.begin() + 1,
                            config.splits.end());
    const bool attributed = supervisor.runStage(
        "shapley", shapley_max_level, [&](const StageAttempt &a) {
            StageBodyResult r;
            const std::uint32_t rung = a.level + rung_offset;
            if (rung == 0) {
                result.attribution = attributeIncremental(
                    result.window, config.poolGrams,
                    config.incrementalWindowPeriods, 0,
                    inner_splits,
                    config.incrementalCacheCapacity,
                    &config.supervisor.faultPlan);
                r.note = "incremental sliding-window attribution";
                r.costMs = costMsFor(
                    result.attribution.operations, 2, 5);
            } else if (rung == 1) {
                result.attribution = attributeExact(
                    result.window, config.poolGrams, config.splits);
                r.costMs = costMsFor(
                    result.attribution.operations, 2, 10);
            } else if (rung == 2) {
                // Shrinking trial budget: scale the permutation
                // count by the remaining share of the deadline and
                // halve it on every extra attempt at this rung.
                std::size_t perms = config.sampledPermutations;
                if (a.deadlineMs > 0) {
                    perms = static_cast<std::size_t>(
                        static_cast<double>(perms) *
                        static_cast<double>(a.remainingMs) /
                        static_cast<double>(a.deadlineMs));
                }
                perms >>= (a.attemptAtLevel - 1);
                perms = std::max<std::size_t>(16, perms);
                result.attribution = attributeSampled(
                    result.window, config.poolGrams,
                    kSampledMaxPeriods, perms,
                    Rng(config.supervisor.seed));
                r.degraded = true;
                r.note = "sampled attribution (" +
                    std::to_string(perms) + " permutations)";
                r.costMs = costMsFor(
                    perms * kSampledMaxPeriods, 1, 2);
            } else {
                result.attribution = attributeProportional(
                    result.window, config.poolGrams);
                r.degraded = true;
                r.note = "proportional (RUP) attribution";
                r.costMs = costMsFor(result.window.size(), 2, 1);
            }
            return r;
        });
    if (!attributed) {
        supervisor.skipStage("interference", "shapley failed");
        supervisor.skipStage("report", "shapley failed");
        supervisor.finalize(false);
        result.health = supervisor.health();
        return result;
    }

    // --- stage 4: interference billing -----------------------------
    bool billed = true;
    const bool have_usage = !config.usageSeries.empty() ||
        !config.usagePath.empty();
    if (!have_usage) {
        supervisor.skipStage("interference", "no usage configured");
    } else {
        billed = supervisor.runStage(
            "interference", 0, [&](const StageAttempt &) {
                StageBodyResult r;
                std::vector<
                    std::pair<std::string, trace::TimeSeries>>
                    columns;
                if (!config.usageSeries.empty()) {
                    columns = config.usageSeries;
                } else {
                    const auto table = readCsv(config.usagePath);
                    for (const auto &consumer : table.header) {
                        columns.emplace_back(
                            consumer,
                            trace::TimeSeries(
                                resilience::numericColumnWithPolicy(
                                    table, consumer,
                                    config.badRowPolicy,
                                    &config.supervisor.faultPlan,
                                    &result.ingest,
                                    config.usagePath + ":" +
                                        consumer),
                                config.stepSeconds));
                    }
                }
                // Bill over the shared history prefix; the forecast
                // horizon has no usage yet by definition.
                const auto rup = attributeProportional(
                    result.window, config.poolGrams);
                result.consumers.clear();
                result.fairGrams.clear();
                result.rupGrams.clear();
                std::uint64_t samples = 0;
                for (const auto &[consumer, usage] : columns) {
                    if (usage.size() > result.window.size())
                        throw FatalDataError(
                            "usage column '" + consumer + "' has " +
                            std::to_string(usage.size()) +
                            " rows; the window has only " +
                            std::to_string(result.window.size()));
                    const auto fair_slice =
                        result.attribution.intensity.slice(
                            0, usage.size());
                    const auto rup_slice =
                        rup.intensity.slice(0, usage.size());
                    result.consumers.push_back(consumer);
                    result.fairGrams.push_back(
                        core::attributeUsage(fair_slice, usage));
                    result.rupGrams.push_back(
                        core::attributeUsage(rup_slice, usage));
                    samples += usage.size();
                }
                r.costMs = costMsFor(samples, 5, 1);
                return r;
            });
    }
    if (!billed) {
        supervisor.skipStage("report", "interference failed");
        supervisor.finalize(false);
        result.health = supervisor.health();
        return result;
    }

    // --- stage 5: report -------------------------------------------
    const bool reported = supervisor.runStage(
        "report", 0, [&](const StageAttempt &) {
            StageBodyResult r;
            if (!config.signalOutPath.empty()) {
                CsvWriter csv(config.signalOutPath);
                csv.writeRow({"step", "time_s", "demand",
                              "intensity_g_per_unit_s",
                              "is_forecast"});
                const auto &window = result.window;
                for (std::size_t i = 0; i < window.size(); ++i) {
                    csv.writeNumericRow(
                        {static_cast<double>(i),
                         i * window.stepSeconds(), window[i],
                         result.attribution.intensity[i],
                         i >= result.demand.size() ? 1.0 : 0.0});
                }
            }
            if (!config.billsOutPath.empty() &&
                !result.consumers.empty()) {
                CsvWriter csv(config.billsOutPath);
                csv.writeRow(
                    {"consumer", "fair_grams", "rup_grams"});
                for (std::size_t i = 0;
                     i < result.consumers.size(); ++i) {
                    csv.writeRow(result.consumers[i],
                                 {result.fairGrams[i],
                                  result.rupGrams[i]});
                }
            }
            r.costMs = costMsFor(result.window.size(), 5, 1);
            return r;
        });

    supervisor.finalize(reported);
    result.health = supervisor.health();
    return result;
}

} // namespace fairco2::pipeline
