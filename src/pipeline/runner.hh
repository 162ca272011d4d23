/**
 * @file
 * The end-to-end attribution pipeline.
 *
 * runAttributionPipeline() drives the full Fair-CO2 flow as five
 * stages, in order:
 *
 *  1. ingest       — load and repair the demand series (and optional
 *                    per-consumer usage table).
 *  2. forecast     — extend the window by the configured horizon.
 *                    A history shorter than the seasonal model's
 *                    feature count cannot be fit, so it gets the
 *                    seasonal-naive forecast (fitNaive) and the stage
 *                    reports Degraded. Skipped without a horizon.
 *  3. shapley      — attribute the pool over the window: the
 *                    incremental sliding-window engine when
 *                    incrementalWindowPeriods > 0, else exact
 *                    hierarchical Temporal Shapley. A cache-integrity
 *                    failure in the incremental engine (see the fault
 *                    plan's `cache-corrupt` key) falls back to the
 *                    exact attribution and reports Degraded.
 *  4. interference — bill each usage column against the intensity
 *                    signal (and against the RUP baseline for
 *                    comparison). Skipped without usage.
 *  5. report       — serialize the signal and bill CSVs.
 *
 * FatalDataError (unusable input) propagates, and front ends exit 2.
 * Any other exception fails its stage with the error as the note,
 * skips the later stages, and owes exit 1. A SIGINT/SIGTERM observed
 * between stages skips the rest and owes exit 130. No stage output
 * depends on the thread count, so neither does the RunHealth JSON.
 */

#ifndef FAIRCO2_PIPELINE_RUNNER_HH
#define FAIRCO2_PIPELINE_RUNNER_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/attribution.hh"
#include "pipeline/health.hh"
#include "resilience/faultplan.hh"
#include "resilience/ingest.hh"
#include "trace/timeseries.hh"

namespace fairco2::pipeline
{

/** Everything a run needs. */
struct PipelineConfig
{
    /** Demand input: either a CSV path + column, or an in-memory
     *  series (used by tests; takes precedence when non-empty). */
    std::string demandPath;
    std::string demandColumn = "demand";
    trace::TimeSeries demandSeries;

    /** Optional per-consumer usage CSV (one numeric column each). */
    std::string usagePath;
    /** In-memory usage columns (take precedence when non-empty). */
    std::vector<std::pair<std::string, trace::TimeSeries>> usageSeries;

    double stepSeconds = 300.0;
    double poolGrams = 0.0;
    std::vector<std::size_t> splits{10, 9, 8, 12};
    std::size_t horizonSteps = 0; //!< 0 skips the forecast stage

    /** Sliding-window size, in periods, for the incremental Shapley
     *  engine; 0 attributes with the exact engine instead. */
    std::size_t incrementalWindowPeriods = 0;
    /** Sub-game memo capacity for the incremental engine (0 disables
     *  memoization — useful only for differential testing). */
    std::size_t incrementalCacheCapacity = 64;

    /** Output CSV paths; empty keeps results in memory only. */
    std::string signalOutPath;
    std::string billsOutPath;

    resilience::BadRowPolicy badRowPolicy =
        resilience::BadRowPolicy::Fail;
    resilience::FaultPlan faultPlan;
};

/** Everything a run produces. */
struct PipelineResult
{
    RunHealth health;          //!< includes the owed exit code
    trace::TimeSeries demand;  //!< ingested (repaired) history
    trace::TimeSeries window;  //!< history + accepted forecast
    AttributionOutput attribution;
    std::vector<std::string> consumers;
    std::vector<double> fairGrams; //!< per consumer, Fair-CO2 signal
    std::vector<double> rupGrams;  //!< per consumer, RUP baseline
    resilience::IngestReport ingest;
};

/**
 * Run the pipeline. Throws FatalDataError on unusable input (front
 * ends exit 2); every other failure is recorded in the health report
 * and the returned exit code.
 */
PipelineResult runAttributionPipeline(const PipelineConfig &config);

} // namespace fairco2::pipeline

#endif // FAIRCO2_PIPELINE_RUNNER_HH
