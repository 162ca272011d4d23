#include "pipeline/runner.hh"

#include <string>

#include "common/csv.hh"
#include "common/errors.hh"
#include "common/obs.hh"
#include "core/baselines.hh"
#include "forecast/forecaster.hh"
#include "resilience/signals.hh"
#include "shapley/incremental.hh"

namespace fairco2::pipeline
{

namespace
{

/** One stage body: fills @p result and may set @p stage's status
 *  (it starts Ok) and note. */
using StageBody = void (*)(const PipelineConfig &config,
                           PipelineResult &result, StageHealth &stage);

void
ingest(const PipelineConfig &config, PipelineResult &result,
       StageHealth &)
{
    if (!config.demandSeries.empty()) {
        // The in-memory path still exercises the fault plan and
        // repair machinery, like loadSeriesColumn does.
        std::vector<double> values = config.demandSeries.values();
        resilience::injectTelemetryFaults(values, config.faultPlan);
        resilience::injectBoundaryNans(values, config.faultPlan);
        resilience::repairNonFinite(values, config.badRowPolicy,
                                    "pipeline demand telemetry",
                                    &result.ingest);
        result.demand = trace::TimeSeries(
            std::move(values), config.demandSeries.stepSeconds());
    } else {
        result.demand = resilience::loadSeriesColumn(
            config.demandPath, config.demandColumn, config.stepSeconds,
            config.badRowPolicy, &config.faultPlan, &result.ingest);
    }
    if (!config.usageSeries.empty()) {
        for (const auto &entry : config.usageSeries)
            result.consumers.push_back(entry.first);
    } else if (!config.usagePath.empty()) {
        result.consumers = readCsv(config.usagePath).header;
    }
    result.window = result.demand;
}

void
forecastHorizon(const PipelineConfig &config, PipelineResult &result,
                StageHealth &stage)
{
    if (config.horizonSteps == 0) {
        stage.status = StageStatus::Skipped;
        stage.note = "no horizon configured";
        return;
    }
    forecast::SeasonalForecaster forecaster;
    const std::size_t min_samples = forecaster.minHistorySamples();
    if (result.demand.size() < min_samples) {
        forecaster.fitNaive(result.demand);
        stage.note = "seasonal-naive forecast: " +
            std::to_string(result.demand.size()) +
            " history samples, the seasonal model needs " +
            std::to_string(min_samples);
    } else {
        forecaster.fit(result.demand);
        if (forecaster.degraded())
            stage.note = "seasonal-naive forecast: the seasonal fit "
                         "fell back";
    }
    if (forecaster.degraded())
        stage.status = StageStatus::Degraded;
    const auto horizon = forecaster.forecast(config.horizonSteps);
    std::vector<double> values = result.demand.values();
    values.insert(values.end(), horizon.values().begin(),
                  horizon.values().end());
    result.window = trace::TimeSeries(std::move(values),
                                      result.demand.stepSeconds());
}

void
attribute(const PipelineConfig &config, PipelineResult &result,
          StageHealth &stage)
{
    if (config.incrementalWindowPeriods == 0) {
        result.attribution = attributeExact(
            result.window, config.poolGrams, config.splits);
        return;
    }
    // The window size replaces the top-level split count; periods are
    // leaves of the hierarchy the remaining splits shape.
    std::vector<std::size_t> inner_splits;
    if (config.splits.size() > 1)
        inner_splits.assign(config.splits.begin() + 1,
                            config.splits.end());
    try {
        result.attribution = attributeIncremental(
            result.window, config.poolGrams,
            config.incrementalWindowPeriods, 0, inner_splits,
            config.incrementalCacheCapacity, &config.faultPlan);
        stage.note = "incremental sliding-window attribution";
    } catch (const shapley::CacheIntegrityError &error) {
        // The memo cache is an optimization, never an input: the
        // full recompute publishes the same game's exact signal.
        result.attribution = attributeExact(
            result.window, config.poolGrams, config.splits);
        stage.status = StageStatus::Degraded;
        stage.note = std::string(error.what()) +
            "; exact attribution";
    }
}

void
bill(const PipelineConfig &config, PipelineResult &result,
     StageHealth &stage)
{
    std::vector<std::pair<std::string, trace::TimeSeries>> columns;
    if (!config.usageSeries.empty()) {
        columns = config.usageSeries;
    } else if (!config.usagePath.empty()) {
        const auto table = readCsv(config.usagePath);
        for (const auto &consumer : table.header) {
            columns.emplace_back(
                consumer,
                trace::TimeSeries(
                    resilience::numericColumnWithPolicy(
                        table, consumer, config.badRowPolicy,
                        &config.faultPlan, &result.ingest,
                        config.usagePath + ":" + consumer),
                    config.stepSeconds));
        }
    } else {
        stage.status = StageStatus::Skipped;
        stage.note = "no usage configured";
        return;
    }
    // Bill over the shared history prefix; the forecast horizon has
    // no usage yet by definition.
    const auto rup =
        attributeProportional(result.window, config.poolGrams);
    result.consumers.clear();
    for (const auto &[consumer, usage] : columns) {
        if (usage.size() > result.window.size())
            throw FatalDataError(
                "usage column '" + consumer + "' has " +
                std::to_string(usage.size()) +
                " rows; the window has only " +
                std::to_string(result.window.size()));
        result.consumers.push_back(consumer);
        result.fairGrams.push_back(core::attributeUsage(
            result.attribution.intensity.slice(0, usage.size()),
            usage));
        result.rupGrams.push_back(core::attributeUsage(
            rup.intensity.slice(0, usage.size()), usage));
    }
}

void
report(const PipelineConfig &config, PipelineResult &result,
       StageHealth &)
{
    if (!config.signalOutPath.empty()) {
        CsvWriter csv(config.signalOutPath);
        csv.writeRow({"step", "time_s", "demand",
                      "intensity_g_per_unit_s", "is_forecast"});
        const auto &window = result.window;
        for (std::size_t i = 0; i < window.size(); ++i) {
            csv.writeNumericRow(
                {static_cast<double>(i), i * window.stepSeconds(),
                 window[i], result.attribution.intensity[i],
                 i >= result.demand.size() ? 1.0 : 0.0});
        }
    }
    if (!config.billsOutPath.empty() && !result.consumers.empty()) {
        CsvWriter csv(config.billsOutPath);
        csv.writeRow({"consumer", "fair_grams", "rup_grams"});
        for (std::size_t i = 0; i < result.consumers.size(); ++i) {
            csv.writeRow(result.consumers[i],
                         {result.fairGrams[i], result.rupGrams[i]});
        }
    }
}

} // namespace

PipelineResult
runAttributionPipeline(const PipelineConfig &config)
{
    FAIRCO2_SPAN("pipeline.run");
    static constexpr std::pair<const char *, StageBody> kStages[] = {
        {"ingest", ingest},     {"forecast", forecastHorizon},
        {"shapley", attribute}, {"interference", bill},
        {"report", report},
    };

    PipelineResult result;
    RunHealth &health = result.health;
    health.faultPlan = config.faultPlan.spec();
    std::string failed; // the stage that threw, if any
    for (const auto &[name, body] : kStages) {
        StageHealth &stage = health.stages.emplace_back();
        stage.name = name;
        if (!failed.empty()) {
            stage.note = failed + " failed";
            continue;
        }
        if (resilience::shutdownRequested()) {
            health.interrupted = true;
            stage.note = "interrupted";
            continue;
        }
        FAIRCO2_SPAN("pipeline.stage");
        stage.status = StageStatus::Ok;
        try {
            body(config, result, stage);
        } catch (const FatalDataError &) {
            throw;
        } catch (const std::exception &error) {
            stage.status = StageStatus::Failed;
            stage.note = error.what();
            failed = name;
            FAIRCO2_COUNT("pipeline.stage_failed", 1);
        }
        if (stage.status == StageStatus::Degraded)
            health.degraded = true;
    }

    if (resilience::shutdownRequested())
        health.interrupted = true;
    // Output exists once the report stage has run.
    health.produced = health.stages.back().status == StageStatus::Ok;
    health.ok = health.produced && !health.degraded &&
        !health.interrupted;
    if (health.interrupted)
        health.exitCode = resilience::kInterruptExitCode;
    else
        health.exitCode = health.produced ? 0 : 1;
    FAIRCO2_COUNT("pipeline.runs", 1);
    if (health.degraded)
        FAIRCO2_COUNT("pipeline.degraded_runs", 1);
    return result;
}

} // namespace fairco2::pipeline
