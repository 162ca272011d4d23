/**
 * @file
 * Standalone command-line front end: run Fair-CO2 attribution on
 * CSV telemetry without writing C++.
 *
 *   fairco2 signal   --demand demand.csv --pool-grams 1e6
 *                    [--column demand] [--step-seconds 300]
 *                    [--splits 10,9,8,12] [--incremental
 *                    --window 24 --period-samples 0
 *                    --cache-capacity 64] --out signal.csv
 *   fairco2 bill     --signal signal.csv --usage usage.csv
 *                    --out bills.csv
 *   fairco2 forecast --demand demand.csv --horizon-steps 2592
 *                    [--column demand] [--step-seconds 300]
 *                    --out forecast.csv
 *   fairco2 run      --demand demand.csv --pool-grams 1e6
 *                    [--usage usage.csv] [--horizon-steps 288]
 *                    [--incremental-window 0]
 *                    [--health-out health.json]
 *                    --out signal.csv [--bills-out bills.csv]
 *   fairco2 serve    [--tenants 1000] [--shards 4] [--zipf-s 1.1]
 *                    [--admission-rate 0] [--duration-periods 48]
 *                    [--window 8] [--period-samples 12]
 *                    [--cache-capacity 64] [--seed 42]
 *                    [--wal-dir wal/ [--recover]
 *                     [--wal-compress] [--wal-segment-records 16]
 *                     [--scrub-periods 8]]
 *                    [--out served.csv]
 *
 * `signal` turns a demand series into a Temporal Shapley intensity
 * signal — classically in one full solve, or with `--incremental`
 * through the sliding-window engine whose memoized sub-games are
 * observable via the `shapley.cache.*` counters in `--metrics-out`;
 * `bill` integrates per-consumer usage columns against a
 * signal; `forecast` extends a demand series Prophet-style. `run`
 * drives the whole flow (ingest -> forecast -> Shapley ->
 * interference billing -> report) as five straight-line stages,
 * with an honest RunHealth JSON written to `--health-out`.
 * `serve` drives the sharded multi-tenant live-signal server: a
 * deterministic discrete-event loop pushes Zipf-skewed tenant
 * telemetry through token-bucket admission into per-shard
 * incremental engines; the published fleet signal is bit-identical
 * for any `--shards`/`--threads` at the same seed, and the summary
 * line prints its FNV-1a signature. With `--wal-dir` every arrival
 * tick is group-committed to a checksummed write-ahead log;
 * `--recover` replays it byte-identically after a kill at any tick.
 *
 * All commands accept `--on-bad-row={fail,skip,interpolate}` for
 * defective telemetry rows and `--fault-plan <spec>` for
 * deterministic fault injection; exit status 2 means bad input (a
 * malformed flag or unusable data), distinct from a crash. SIGINT/
 * SIGTERM stop the run at the next stage boundary, still flush the
 * health report, and exit 130.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cache/compr_api.hh"
#include "common/csv.hh"
#include "common/errors.hh"
#include "common/flags.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "core/baselines.hh"
#include "core/temporal.hh"
#include "durability/wal.hh"
#include "forecast/forecaster.hh"
#include "pipeline/health.hh"
#include "pipeline/overload.hh"
#include "pipeline/runner.hh"
#include "resilience/faultplan.hh"
#include "resilience/ingest.hh"
#include "resilience/signals.hh"
#include "server/signalserver.hh"
#include "trace/timeseries.hh"

using namespace fairco2;

namespace
{

/** Parse "10,9,8,12" into split counts; malformed lists exit 2. */
std::vector<std::size_t>
parseSplits(const std::string &text)
{
    try {
        return parsePositiveIntList(text);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: --splits: %s\n", error.what());
        std::exit(2);
    }
}

/** Shared ingestion/fault flags and their parsed forms. */
struct ResilienceFlags
{
    std::string badRowText = "fail";
    std::string faultPlanText;
    resilience::BadRowPolicy policy = resilience::BadRowPolicy::Fail;
    resilience::FaultPlan plan;
    resilience::IngestReport report;

    void add(FlagSet &flags)
    {
        resilience::addBadRowFlag(flags, &badRowText);
        resilience::addFaultPlanFlag(flags, &faultPlanText);
    }

    void apply()
    {
        policy = resilience::applyBadRowFlag(badRowText);
        plan = resilience::applyFaultPlanFlag(faultPlanText);
    }

    /** Log the ingest outcome when anything was defective. */
    void note() const
    {
        if (report.rowsBad > 0)
            std::fprintf(stderr, "ingest: %s\n",
                         report.summary().c_str());
    }
};

trace::TimeSeries
loadColumn(const std::string &path, const std::string &column,
           double step_seconds, ResilienceFlags &res)
{
    return resilience::loadSeriesColumn(path, column, step_seconds,
                                        res.policy, &res.plan,
                                        &res.report);
}

int
runSignal(int argc, char **argv)
{
    std::string demand_path, out_path = "signal.csv";
    std::string column = "demand";
    std::string splits_text = "10,9,8,12";
    double step_seconds = 300.0;
    double pool_grams = 0.0;
    bool incremental = false;
    std::int64_t horizon_steps = 0;
    std::int64_t window_periods = 24;
    std::int64_t period_samples = 0;
    std::int64_t cache_capacity = 64;
    FlagSet flags("fairco2 signal: demand CSV -> Temporal Shapley "
                  "intensity CSV");
    flags.addString("demand", &demand_path, "input demand CSV");
    flags.addString("column", &column, "demand column name");
    flags.addDouble("step-seconds", &step_seconds,
                    "sample width of the input");
    flags.addDouble("pool-grams", &pool_grams,
                    "fixed carbon to attribute over the window");
    flags.addString("splits", &splits_text,
                    "hierarchical split counts, comma-separated");
    flags.addInt("horizon-steps", &horizon_steps,
                 "forecast steps appended to the window before "
                 "attribution (0: none; classic mode only)");
    flags.addBool("incremental", &incremental,
                  "attribute via the sliding-window incremental "
                  "engine instead of one full solve (attributes "
                  "measured demand only: no projected intensity)");
    flags.addInt("window", &window_periods,
                 "incremental: sliding-window size in periods");
    flags.addInt("period-samples", &period_samples,
                 "incremental: samples per period (0: derive so the "
                 "window spans half the trace)");
    flags.addInt("cache-capacity", &cache_capacity,
                 "incremental: sub-game memo entries (must be "
                 ">= 1)");
    flags.addString("out", &out_path, "output CSV path");
    std::int64_t threads = 0;
    parallel::addThreadsFlag(flags, &threads);
    obs::ObsFlags obs_flags;
    obs::addObsFlags(flags, &obs_flags);
    ResilienceFlags res;
    res.add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    parallel::applyThreadsFlag(threads);
    obs::applyObsFlags(obs_flags);
    res.apply();
    FAIRCO2_SPAN("cli.signal");
    if (demand_path.empty() || pool_grams <= 0.0) {
        std::fprintf(stderr,
                     "error: --demand and a positive --pool-grams "
                     "are required\n");
        return 2;
    }

    if (incremental && (window_periods <= 0 || period_samples < 0)) {
        std::fprintf(stderr,
                     "error: --window must be positive; "
                     "--period-samples must be non-negative\n");
        return 2;
    }
    // A capacity of 0 would silently disable memoization — the whole
    // point of --incremental — so it is a flag error, not a mode.
    if (incremental && cache_capacity <= 0) {
        std::fprintf(stderr,
                     "error: --cache-capacity must be >= 1 with "
                     "--incremental (got %lld): the sliding engine "
                     "needs a live sub-game memo cache; capacity "
                     "only changes solve cost, never the published "
                     "signal\n",
                     static_cast<long long>(cache_capacity));
        return 2;
    }
    if (horizon_steps < 0) {
        std::fprintf(stderr,
                     "error: --horizon-steps must be "
                     "non-negative\n");
        return 2;
    }
    // The sliding engine attributes measured demand only — a
    // forecast horizon would silently be dropped, so combining the
    // flags is a contract violation, not a no-op.
    if (incremental && horizon_steps > 0) {
        std::fprintf(stderr,
                     "error: --horizon-steps cannot be combined "
                     "with --incremental (the sliding engine "
                     "attributes measured demand only; use "
                     "`fairco2 run --incremental-window` for a "
                     "horizon blend)\n");
        return 2;
    }

    auto demand =
        loadColumn(demand_path, column, step_seconds, res);
    res.note();
    const std::size_t history_len = demand.size();
    if (horizon_steps > 0) {
        try {
            demand = forecast::SeasonalForecaster()
                         .extendWithForecast(
                             demand, static_cast<std::size_t>(
                                         horizon_steps));
        } catch (const std::invalid_argument &error) {
            std::fprintf(stderr,
                         "error: --horizon-steps: %s\n",
                         error.what());
            return 2;
        }
    }
    const auto splits = parseSplits(splits_text);

    trace::TimeSeries intensity;
    double attributed_grams = 0.0;
    double unattributed_grams = 0.0;
    if (incremental) {
        // The --window flag replaces the top-level split count; the
        // remaining splits shape each period's inner hierarchy.
        std::vector<std::size_t> inner_splits;
        if (splits.size() > 1)
            inner_splits.assign(splits.begin() + 1, splits.end());
        auto result = pipeline::attributeIncremental(
            demand, pool_grams,
            static_cast<std::size_t>(window_periods),
            static_cast<std::size_t>(period_samples), inner_splits,
            static_cast<std::size_t>(cache_capacity), &res.plan);
        intensity = std::move(result.intensity);
        attributed_grams = result.attributedGrams;
        unattributed_grams = result.unattributedGrams;
    } else {
        auto result = core::TemporalShapley().attribute(
            demand, pool_grams, splits);
        intensity = std::move(result.intensity);
        attributed_grams = result.attributedGrams;
        unattributed_grams = result.unattributedGrams;
    }

    CsvWriter csv(out_path);
    csv.writeRow({"step", "time_s", "demand",
                  "intensity_g_per_unit_s"});
    for (std::size_t i = 0; i < demand.size(); ++i) {
        csv.writeNumericRow({static_cast<double>(i),
                             i * step_seconds, demand[i],
                             intensity[i]});
    }
    std::printf("signal: %zu samples, %.6g g attributed "
                "(%.6g g dropped) -> %s\n",
                demand.size(), attributed_grams,
                unattributed_grams, out_path.c_str());
    if (horizon_steps > 0)
        std::printf("signal: %zu measured + %lld forecast steps "
                    "attributed together\n",
                    history_len,
                    static_cast<long long>(horizon_steps));
    if (incremental)
        // Honest reporting: in sliding mode there is no
        // projected tail (LiveIntensityService::projectedIntensity
        // is empty by contract), so say so instead of implying one.
        std::printf("signal: projected intensity n/a in "
                    "sliding mode (measured demand only)\n");
    return 0;
}

int
runBill(int argc, char **argv)
{
    std::string signal_path, usage_path, out_path = "bills.csv";
    FlagSet flags("fairco2 bill: usage CSV x intensity CSV -> "
                  "per-consumer carbon");
    flags.addString("signal", &signal_path,
                    "intensity CSV from `fairco2 signal`");
    flags.addString("usage", &usage_path,
                    "usage CSV: one numeric column per consumer");
    flags.addString("out", &out_path, "output CSV path");
    std::int64_t threads = 0;
    parallel::addThreadsFlag(flags, &threads);
    obs::ObsFlags obs_flags;
    obs::addObsFlags(flags, &obs_flags);
    ResilienceFlags res;
    res.add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    parallel::applyThreadsFlag(threads);
    obs::applyObsFlags(obs_flags);
    res.apply();
    FAIRCO2_SPAN("cli.bill");
    if (signal_path.empty() || usage_path.empty()) {
        std::fprintf(stderr,
                     "error: --signal and --usage are required\n");
        return 2;
    }

    const auto signal_table = readCsv(signal_path);
    const auto step_col = signal_table.numericColumn("time_s");
    const double step = step_col.size() > 1
        ? step_col[1] - step_col[0]
        : 1.0;
    const trace::TimeSeries intensity(
        resilience::numericColumnWithPolicy(
            signal_table, "intensity_g_per_unit_s", res.policy,
            &res.plan, &res.report,
            signal_path + ":intensity_g_per_unit_s"),
        step);

    const auto usage_table = readCsv(usage_path);
    CsvWriter csv(out_path);
    csv.writeRow({"consumer", "grams"});
    double total = 0.0;
    for (const auto &consumer : usage_table.header) {
        const trace::TimeSeries usage(
            resilience::numericColumnWithPolicy(
                usage_table, consumer, res.policy, &res.plan,
                &res.report, usage_path + ":" + consumer),
            step);
        if (usage.size() != intensity.size()) {
            std::fprintf(stderr,
                         "error: usage column '%s' has %zu rows; "
                         "signal has %zu\n",
                         consumer.c_str(), usage.size(),
                         intensity.size());
            return 2;
        }
        const double grams =
            core::attributeUsage(intensity, usage);
        csv.writeRow(consumer, {grams});
        total += grams;
    }
    res.note();
    std::printf("bill: %zu consumers, %.6g g total -> %s\n",
                usage_table.header.size(), total,
                out_path.c_str());
    return 0;
}

int
runForecast(int argc, char **argv)
{
    std::string demand_path, out_path = "forecast.csv";
    std::string column = "demand";
    double step_seconds = 300.0;
    std::int64_t horizon_steps = 2592;
    FlagSet flags("fairco2 forecast: extend a demand CSV with a "
                  "seasonal forecast");
    flags.addString("demand", &demand_path, "input demand CSV");
    flags.addString("column", &column, "demand column name");
    flags.addDouble("step-seconds", &step_seconds,
                    "sample width of the input");
    flags.addInt("horizon-steps", &horizon_steps,
                 "steps to forecast past the end");
    flags.addString("out", &out_path, "output CSV path");
    std::int64_t threads = 0;
    parallel::addThreadsFlag(flags, &threads);
    obs::ObsFlags obs_flags;
    obs::addObsFlags(flags, &obs_flags);
    ResilienceFlags res;
    res.add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    parallel::applyThreadsFlag(threads);
    obs::applyObsFlags(obs_flags);
    res.apply();
    FAIRCO2_SPAN("cli.forecast");
    if (demand_path.empty() || horizon_steps <= 0) {
        std::fprintf(stderr,
                     "error: --demand and a positive "
                     "--horizon-steps are required\n");
        return 2;
    }

    const auto history =
        loadColumn(demand_path, column, step_seconds, res);
    res.note();
    forecast::SeasonalForecaster forecaster;
    const auto blended = forecaster.extendWithForecast(
        history, static_cast<std::size_t>(horizon_steps));

    CsvWriter csv(out_path);
    csv.writeRow({"step", "time_s", "demand", "is_forecast"});
    for (std::size_t i = 0; i < blended.size(); ++i) {
        csv.writeNumericRow(
            {static_cast<double>(i), i * step_seconds, blended[i],
             i >= history.size() ? 1.0 : 0.0});
    }
    std::printf("forecast: %zu history + %lld forecast steps -> "
                "%s\n",
                history.size(),
                static_cast<long long>(horizon_steps),
                out_path.c_str());
    return 0;
}

int
runPipeline(int argc, char **argv)
{
    pipeline::PipelineConfig config;
    std::string splits_text = "10,9,8,12";
    std::string health_out;
    std::int64_t horizon_steps = 0;
    std::int64_t incremental_window = 0;
    FlagSet flags("fairco2 run: end-to-end attribution "
                  "(ingest -> forecast -> Shapley -> billing -> "
                  "report)");
    flags.addString("demand", &config.demandPath,
                    "input demand CSV");
    flags.addString("column", &config.demandColumn,
                    "demand column name");
    flags.addString("usage", &config.usagePath,
                    "optional usage CSV: one column per consumer");
    flags.addDouble("step-seconds", &config.stepSeconds,
                    "sample width of the input");
    flags.addDouble("pool-grams", &config.poolGrams,
                    "fixed carbon to attribute over the window");
    flags.addString("splits", &splits_text,
                    "hierarchical split counts, comma-separated");
    flags.addInt("horizon-steps", &horizon_steps,
                 "forecast steps appended to the window (0: none)");
    flags.addInt("incremental-window", &incremental_window,
                 "sliding-window periods for the incremental "
                 "Shapley engine (0: exact attribution)");
    flags.addString("out", &config.signalOutPath,
                    "signal output CSV path");
    flags.addString("bills-out", &config.billsOutPath,
                    "per-consumer bills output CSV path");
    flags.addString("health-out", &health_out,
                    "RunHealth JSON output path");
    std::int64_t threads = 0;
    parallel::addThreadsFlag(flags, &threads);
    obs::ObsFlags obs_flags;
    obs::addObsFlags(flags, &obs_flags);
    ResilienceFlags res;
    res.add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    parallel::applyThreadsFlag(threads);
    obs::applyObsFlags(obs_flags);
    res.apply();
    FAIRCO2_SPAN("cli.run");
    if (config.demandPath.empty() || config.poolGrams <= 0.0) {
        std::fprintf(stderr,
                     "error: --demand and a positive --pool-grams "
                     "are required\n");
        return 2;
    }
    if (horizon_steps < 0 || incremental_window < 0) {
        std::fprintf(stderr,
                     "error: --horizon-steps and "
                     "--incremental-window must be non-negative\n");
        return 2;
    }
    // Fail fast on unwritable outputs — before any stage runs, not
    // after the attribution is already computed.
    requireWritableFlagPath("health-out", health_out);
    requireWritableFlagPath("out", config.signalOutPath);
    requireWritableFlagPath("bills-out", config.billsOutPath);

    config.splits = parseSplits(splits_text);
    config.horizonSteps = static_cast<std::size_t>(horizon_steps);
    config.incrementalWindowPeriods =
        static_cast<std::size_t>(incremental_window);
    config.badRowPolicy = res.policy;
    config.faultPlan = res.plan;

    resilience::installShutdownHandler();
    const auto result = pipeline::runAttributionPipeline(config);
    if (result.ingest.rowsBad > 0)
        std::fprintf(stderr, "ingest: %s\n",
                     result.ingest.summary().c_str());
    if (!health_out.empty())
        pipeline::writeRunHealth(health_out, result.health);

    const auto &health = result.health;
    std::printf("run: %s%s | %zu window samples, %.6g g attributed "
                "(%.6g g dropped)",
                health.produced ? "produced" : "no output",
                health.degraded ? " (degraded)" : "",
                result.window.size(),
                result.attribution.attributedGrams,
                result.attribution.unattributedGrams);
    for (const auto &stage : health.stages) {
        std::printf(" | %s=%s", stage.name.c_str(),
                    pipeline::stageStatusName(stage.status));
    }
    std::printf("\n");
    return health.exitCode;
}

int
runServe(int argc, char **argv)
{
    std::string out_path;
    std::int64_t tenants = 1000;
    std::int64_t shards = 4;
    double zipf_s = 1.1;
    std::int64_t admission_rate = 0;
    std::int64_t duration_periods = 48;
    std::int64_t window_periods = 8;
    std::int64_t period_samples = 12;
    std::int64_t cache_capacity = 64;
    std::int64_t max_batch_periods = 8;
    double pool_rate = 0.35;
    double step_seconds = 300.0;
    std::int64_t seed = 42;
    std::string wal_dir;
    bool recover = false;
    bool wal_compress = false;
    std::int64_t wal_segment_records = 16;
    std::int64_t scrub_periods = 8;
    std::int64_t kill_at_tick = -1;
    bool kill_torn = false;
    FlagSet flags("fairco2 serve: sharded multi-tenant live-signal "
                  "server (deterministic simulation)");
    flags.addInt("tenants", &tenants,
                 "simulated tenant population size");
    flags.addInt("shards", &shards,
                 "engine shards (1..64); the published fleet signal "
                 "is bit-identical for any value");
    flags.addDouble("zipf-s", &zipf_s,
                    "Zipf skew of tenant arrival weights");
    flags.addInt("admission-rate", &admission_rate,
                 "admitted batches per period across all classes "
                 "(0: unlimited)");
    flags.addInt("duration-periods", &duration_periods,
                 "periods of tenant arrivals to simulate");
    flags.addInt("window", &window_periods,
                 "sliding attribution window, periods");
    flags.addInt("period-samples", &period_samples,
                 "telemetry samples per period");
    flags.addInt("cache-capacity", &cache_capacity,
                 "per-engine sub-game memo entries (0: memoization "
                 "off)");
    flags.addInt("max-batch-periods", &max_batch_periods,
                 "most periods one tenant batch may cover (sets the "
                 "close watermark)");
    flags.addDouble("pool-grams-per-second", &pool_rate,
                    "fleet fixed-carbon rate amortized over the "
                    "window");
    flags.addDouble("step-seconds", &step_seconds,
                    "telemetry sample width, seconds");
    flags.addInt("seed", &seed, "root seed for all tenant streams");
    flags.addString("out", &out_path,
                    "optional published-signal CSV path");
    flags.addString("wal-dir", &wal_dir,
                    "write-ahead-log directory: every arrival tick "
                    "is group-committed so a killed run replays "
                    "byte-identically (empty: durability off)");
    flags.addBool("recover", &recover,
                  "replay the existing log in --wal-dir before "
                  "serving new periods");
    flags.addBool("wal-compress", &wal_compress,
                  "lz-compress WAL record payloads (per record, "
                  "falls back to raw when not smaller)");
    flags.addInt("wal-segment-records", &wal_segment_records,
                 "records per WAL segment before the seal + rotate");
    flags.addInt("scrub-periods", &scrub_periods,
                 "anti-entropy scrub cadence in periods: re-derive "
                 "window digests from the WAL and compare to live "
                 "state (0: never)");
    flags.addInt("kill-at-tick", &kill_at_tick,
                 "test hook: _exit(137) after this event-loop tick, "
                 "simulating kill -9 (-1: off)");
    flags.addBool("kill-torn", &kill_torn,
                  "test hook: with --kill-at-tick on an arrival "
                  "tick, tear that tick's WAL frame mid-write "
                  "first");
    std::int64_t threads = 0;
    parallel::addThreadsFlag(flags, &threads);
    obs::ObsFlags obs_flags;
    obs::addObsFlags(flags, &obs_flags);
    ResilienceFlags res;
    res.add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    parallel::applyThreadsFlag(threads);
    obs::applyObsFlags(obs_flags);
    res.apply();
    FAIRCO2_SPAN("cli.serve");
    if (tenants <= 0 || shards <= 0 ||
        shards > static_cast<std::int64_t>(server::kMaxShards) ||
        duration_periods <= 0 || window_periods <= 0 ||
        period_samples <= 0 || max_batch_periods <= 0 ||
        cache_capacity < 0 || admission_rate < 0 || seed < 0 ||
        zipf_s < 0.0 || pool_rate < 0.0 || step_seconds <= 0.0) {
        std::fprintf(stderr,
                     "error: --tenants, --shards (<= 64), "
                     "--duration-periods, --window, "
                     "--period-samples, --max-batch-periods, and "
                     "--step-seconds must be positive; --zipf-s, "
                     "--admission-rate, --cache-capacity, --seed, "
                     "and --pool-grams-per-second must be "
                     "non-negative\n");
        return 2;
    }
    if (wal_segment_records <= 0 || scrub_periods < 0 ||
        kill_at_tick < -1) {
        std::fprintf(stderr,
                     "error: --wal-segment-records must be positive; "
                     "--scrub-periods must be non-negative; "
                     "--kill-at-tick must be >= -1\n");
        return 2;
    }
    if (wal_dir.empty() && (recover || kill_torn)) {
        std::fprintf(stderr,
                     "error: --recover and --kill-torn require "
                     "--wal-dir\n");
        return 2;
    }
    requireWritableFlagPath("out", out_path);
    if (!wal_dir.empty()) {
        // Preflight before the event loop ever starts: an unwritable
        // or non-directory --wal-dir is bad input, not a crash.
        const std::string problem = durability::walDirError(wal_dir);
        if (!problem.empty()) {
            std::fprintf(stderr, "error: --wal-dir: %s\n",
                         problem.c_str());
            return 2;
        }
    }

    server::ServerConfig config;
    config.tenants = static_cast<std::size_t>(tenants);
    config.shards = static_cast<std::size_t>(shards);
    config.zipfS = zipf_s;
    config.admissionRate =
        static_cast<std::uint64_t>(admission_rate);
    config.durationPeriods =
        static_cast<std::uint64_t>(duration_periods);
    config.windowPeriods = static_cast<std::size_t>(window_periods);
    config.periodSamples = static_cast<std::size_t>(period_samples);
    config.cacheCapacity = static_cast<std::size_t>(cache_capacity);
    config.maxBatchPeriods =
        static_cast<std::size_t>(max_batch_periods);
    config.poolGramsPerSecond = pool_rate;
    config.stepSeconds = step_seconds;
    config.seed = static_cast<std::uint64_t>(seed);
    config.faultPlan = res.plan;
    config.durability.walDir = wal_dir;
    config.durability.recover = recover;
    config.durability.walCodec =
        wal_compress ? cache::Codec::Lz : cache::Codec::Identity;
    config.durability.walSegmentRecords =
        static_cast<std::uint64_t>(wal_segment_records);
    config.durability.scrubPeriods =
        static_cast<std::uint64_t>(scrub_periods);
    if (kill_at_tick >= 0)
        config.durability.killAtTick =
            static_cast<std::uint64_t>(kill_at_tick);
    config.durability.killTorn = kill_torn;

    resilience::installShutdownHandler();
    server::SignalServer srv(config);
    const auto report = srv.run();

    if (!out_path.empty()) {
        CsvWriter csv(out_path);
        csv.writeRow({"period", "time_s",
                      "fleet_intensity_g_per_unit_s"});
        for (std::size_t i = 0;
             i < report.publishedIntensity.size(); ++i) {
            csv.writeNumericRow(
                {static_cast<double>(report.publishedPeriods[i]),
                 static_cast<double>(report.publishedPeriods[i]) *
                     step_seconds *
                     static_cast<double>(period_samples),
                 report.publishedIntensity[i]});
        }
    }

    std::printf("serve: %lld tenants x %lld shards, %llu periods "
                "closed, %llu publishes, signature %016llx\n",
                static_cast<long long>(tenants),
                static_cast<long long>(shards),
                static_cast<unsigned long long>(
                    report.periodsClosed),
                static_cast<unsigned long long>(report.publishes),
                static_cast<unsigned long long>(
                    report.signalSignature()));
    std::printf("serve: admission offered %llu admitted %llu "
                "deferred %llu rejected %llu shed %llu | "
                "overload=%s (up %llu, down %llu) | rebuilds %llu\n",
                static_cast<unsigned long long>(
                    report.admission.offered),
                static_cast<unsigned long long>(
                    report.admission.admitted),
                static_cast<unsigned long long>(
                    report.admission.deferred),
                static_cast<unsigned long long>(
                    report.admission.rejected),
                static_cast<unsigned long long>(report.batchesShed),
                pipeline::overloadLevelName(
                    static_cast<pipeline::OverloadLevel>(
                        report.finalOverloadLevel)),
                static_cast<unsigned long long>(
                    report.overloadEscalations),
                static_cast<unsigned long long>(
                    report.overloadRecoveries),
                static_cast<unsigned long long>(
                    report.engineRebuilds));
    if (!wal_dir.empty()) {
        if (report.droppedWalTail)
            std::fprintf(stderr, "serve: %s\n",
                         report.walTailDiagnostic.c_str());
        std::printf(
            "serve: wal %llu records in %llu sealed segments "
            "(%llu raw -> %llu stored bytes)%s | replayed %llu | "
            "scrubs %llu\n",
            static_cast<unsigned long long>(report.walRecords),
            static_cast<unsigned long long>(
                report.walSegmentsSealed),
            static_cast<unsigned long long>(report.walRawBytes),
            static_cast<unsigned long long>(report.walStoredBytes),
            report.recovered ? " (recovered)" : "",
            static_cast<unsigned long long>(report.replayedRecords),
            static_cast<unsigned long long>(report.scrubRuns));
    }
    if (!out_path.empty())
        std::printf("serve: published signal -> %s\n",
                    out_path.c_str());
    if (report.interrupted) {
        std::fprintf(stderr,
                     "serve: interrupted by signal %d; wal tail "
                     "sealed\n",
                     resilience::shutdownSignal());
        return resilience::kInterruptExitCode;
    }
    return 0;
}

void
usage()
{
    std::printf(
        "fairco2 <command> [flags]\n\n"
        "Commands:\n"
        "  signal    demand CSV -> Temporal Shapley intensity CSV\n"
        "  bill      usage CSV x intensity CSV -> per-consumer "
        "carbon\n"
        "  forecast  extend a demand CSV with a seasonal forecast\n"
        "  run       end-to-end pipeline: ingest, forecast, Shapley,\n"
        "            billing, report\n"
        "  serve     sharded multi-tenant live-signal server\n"
        "            (deterministic simulation; bit-identical for\n"
        "            any --shards/--threads at the same seed)\n"
        "\nRun `fairco2 <command> --help` for command flags.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    // Shift argv so each command's FlagSet sees its own flags.
    argv[1] = argv[0];
    try {
        if (command == "signal")
            return runSignal(argc - 1, argv + 1);
        if (command == "bill")
            return runBill(argc - 1, argv + 1);
        if (command == "forecast")
            return runForecast(argc - 1, argv + 1);
        if (command == "run")
            return runPipeline(argc - 1, argv + 1);
        if (command == "serve")
            return runServe(argc - 1, argv + 1);
        if (command == "--help" || command == "-h") {
            usage();
            return 0;
        }
    } catch (const FatalDataError &error) {
        // Unusable input under the active policy — same exit code
        // as a malformed flag, so scripts can tell it from a crash.
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command: %s\n\n",
                 command.c_str());
    usage();
    return 2;
}
