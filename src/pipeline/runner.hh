/**
 * @file
 * The supervised end-to-end attribution pipeline.
 *
 * runAttributionPipeline() drives the full Fair-CO2 flow under the
 * Supervisor as five explicit stages:
 *
 *  1. ingest       — load and repair the demand series (and optional
 *                    per-consumer usage table); no ladder, bad input
 *                    is fatal (exit 2), transient crashes retry.
 *  2. forecast     — extend the window by the configured horizon.
 *                    Ladder: full seasonal fit -> seasonal-naive
 *                    (fitNaive) -> skip the horizon entirely. The
 *                    stage is optional: even a Failed forecast only
 *                    shrinks the window back to the history.
 *  3. shapley      — attribute the pool over the window. Ladder:
 *                    [incremental sliding-window, only when
 *                    incrementalWindowPeriods > 0] -> exact
 *                    hierarchical -> sampled with a permutation
 *                    budget that shrinks with the remaining deadline
 *                    and the attempt count -> proportional (RUP)
 *                    baseline. A cache-integrity failure on the
 *                    incremental rung (see the fault plan's
 *                    `cache-corrupt` key) crashes the attempt and
 *                    descends a rung. Required.
 *  4. interference — bill each usage column against the intensity
 *                    signal (and against the RUP baseline for
 *                    comparison). Required when usage is configured,
 *                    Skipped otherwise.
 *  5. report       — serialize the signal and bill CSVs. Required.
 *
 * Every stage cost is a deterministic function of the input sizes on
 * the SimClock, so a run's entire supervision history — and its
 * RunHealth JSON — is reproducible from (inputs, config, seed) alone.
 */

#ifndef FAIRCO2_PIPELINE_RUNNER_HH
#define FAIRCO2_PIPELINE_RUNNER_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/attribution.hh"
#include "pipeline/supervisor.hh"
#include "resilience/ingest.hh"
#include "trace/timeseries.hh"

namespace fairco2::pipeline
{

/** Everything a supervised run needs. */
struct PipelineConfig
{
    /** Demand input: either a CSV path + column, or an in-memory
     *  series (used by the chaos soak and tests; takes precedence
     *  when non-empty). */
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
    std::size_t sampledPermutations = 256; //!< sampled-rung budget

    /** Sliding-window size, in periods, for the incremental Shapley
     *  rung; 0 keeps the classic exact-first ladder. */
    std::size_t incrementalWindowPeriods = 0;
    /** Sub-game LRU capacity for the incremental rung (0 disables
     *  memoization — useful only for differential testing). */
    std::size_t incrementalCacheCapacity = 64;

    /** Output CSV paths; empty keeps results in memory only. */
    std::string signalOutPath;
    std::string billsOutPath;

    resilience::BadRowPolicy badRowPolicy =
        resilience::BadRowPolicy::Fail;
    SupervisorConfig supervisor;
};

/** Everything a supervised run produces. */
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
 * Run the supervised pipeline. Throws FatalDataError on unusable
 * input (front ends exit 2); every other failure mode is absorbed
 * into the health report and the returned exit code.
 */
PipelineResult runAttributionPipeline(const PipelineConfig &config);

} // namespace fairco2::pipeline

#endif // FAIRCO2_PIPELINE_RUNNER_HH
