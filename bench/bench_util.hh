/**
 * @file
 * Shared helpers for the bench binaries: output CSV locations, a
 * uniform "paper vs measured" footer, wall-clock timing, the
 * machine-readable perf trajectory (bench_out/perf_summary.json and
 * bench_out/perf_trajectory.csv) that tracks wall time per bench and
 * thread count across runs, and the common flag hook that gives every
 * bench `--threads` plus the observability outputs
 * `--metrics-out`/`--trace-out`.
 */

#ifndef FAIRCO2_BENCH_BENCH_UTIL_HH
#define FAIRCO2_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/compr_api.hh"
#include "common/flags.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "resilience/checkpoint.hh"

namespace fairco2::bench
{

/**
 * Register the flags every bench shares: `--threads` (deterministic
 * parallelism) and `--metrics-out`/`--trace-out` (observability
 * dumps). Call right before FlagSet::parse.
 */
inline void
addCommonFlags(FlagSet &flags, std::int64_t *threads,
               obs::ObsFlags *obs_flags)
{
    parallel::addThreadsFlag(flags, threads);
    obs::addObsFlags(flags, obs_flags);
}

/**
 * Apply the parsed common flags: size the thread pool and, when any
 * obs output was requested, enable recording and schedule the dump
 * for process exit. Both validate their values and exit 2 on bad
 * input (negative threads, unwritable path).
 */
inline void
applyCommonFlags(std::int64_t threads, const obs::ObsFlags &obs_flags)
{
    parallel::applyThreadsFlag(threads);
    obs::applyObsFlags(obs_flags);
}

/** Raw `--checkpoint`/`--resume`/`--chunk-trials` flag values. */
struct CheckpointFlags
{
    std::string checkpoint;
    std::string resume;
    std::string compress = cache::codecName(cache::Codec::Identity);
    std::int64_t chunkTrials = 0;
    std::int64_t stopAfterChunks = 0;
};

/** Register the checkpoint/resume flags a Monte Carlo bench shares. */
inline void
addCheckpointFlags(FlagSet &flags, CheckpointFlags *values)
{
    flags.addString("checkpoint", &values->checkpoint,
                    "write chunk snapshots to this file");
    flags.addString("resume", &values->resume,
                    "restore completed chunks from this file");
    flags.addString("checkpoint-compress", &values->compress,
                    "snapshot payload codec: identity | lz "
                    "(resume auto-detects)");
    flags.addInt("chunk-trials", &values->chunkTrials,
                 "trials per checkpoint chunk (0: one chunk)");
    flags.addInt("stop-after-chunks", &values->stopAfterChunks,
                 "test hook: stop after computing this many chunks, "
                 "simulating a kill (0: run to completion)");
}

/**
 * Validate and convert the parsed checkpoint flags. A negative chunk
 * size or unwritable checkpoint path exits 2, like any malformed
 * flag value.
 */
inline resilience::CheckpointOptions
applyCheckpointFlags(const CheckpointFlags &values)
{
    if (values.chunkTrials < 0 || values.stopAfterChunks < 0) {
        std::fprintf(stderr,
                     "error: --chunk-trials and --stop-after-chunks "
                     "must be >= 0\n");
        std::exit(2);
    }
    requireWritableFlagPath("checkpoint", values.checkpoint);
    resilience::CheckpointOptions options;
    options.checkpointPath = values.checkpoint;
    options.resumePath = values.resume;
    try {
        options.codec = cache::parseCodec(values.compress);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: --checkpoint-compress: %s\n",
                     e.what());
        std::exit(2);
    }
    options.chunkTrials =
        static_cast<std::uint64_t>(values.chunkTrials);
    options.stopAfterChunks =
        static_cast<std::uint64_t>(values.stopAfterChunks);
    return options;
}

/**
 * Report a checkpointed run's outcome and decide the process exit.
 * Returns -1 when the run is complete and the bench should carry on
 * to its normal reporting; otherwise the exit code the bench owes:
 * kInterruptExitCode (130) when a shutdown signal stopped the run
 * (the checkpoint on disk ends at a chunk boundary and is ready to
 * resume), 0 for a deliberate partial run via --stop-after-chunks.
 */
inline int
checkpointExitStatus(const resilience::CheckpointRunResult &outcome)
{
    std::printf("checkpoint: %llu/%llu chunks resumed, "
                "%llu computed\n",
                static_cast<unsigned long long>(
                    outcome.resumedChunks),
                static_cast<unsigned long long>(outcome.totalChunks),
                static_cast<unsigned long long>(
                    outcome.computedChunks));
    if (outcome.complete)
        return -1;
    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "interrupted: checkpoint flushed at a chunk "
                     "boundary; re-run with --resume to continue\n");
        return resilience::kInterruptExitCode;
    }
    std::printf("partial run: re-run with --resume to continue\n");
    return 0;
}

/** CSV path under ./bench_out for a given series name. */
inline std::string
csvPath(const std::string &name)
{
    return "bench_out/" + name + ".csv";
}

/** Print a "paper reported X, this run measured Y" line. */
inline void
paperVsMeasured(const char *what, double paper, double measured,
                const char *unit)
{
    std::printf("  %-46s paper: %8.2f %-8s measured: %8.2f %s\n",
                what, paper, unit, measured, unit);
}

/** Wall-clock stopwatch for the perf trajectory. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

namespace detail
{

/** One perf_summary.json entry, one line per entry. @p extra is
 *  either empty or additional `"key": value` JSON members to splice
 *  in before the closing brace (e.g. a measured speedup). */
inline std::string
perfEntryLine(const std::string &bench, std::size_t trials,
              std::size_t threads, double wall_seconds,
              std::uint64_t faults, const std::string &extra = "")
{
    std::ostringstream line;
    line << "{\"bench\": \"" << bench << "\", \"trials\": " << trials
         << ", \"threads\": " << threads
         << ", \"wall_s\": " << wall_seconds
         << ", \"faults\": " << faults;
    if (!extra.empty())
        line << ", " << extra;
    line << "}";
    return line.str();
}

/** True when @p line is the entry for (bench, threads). */
inline bool
matchesPerfKey(const std::string &line, const std::string &bench,
               std::size_t threads)
{
    const std::string bench_key = "\"bench\": \"" + bench + "\"";
    const std::string threads_key =
        "\"threads\": " + std::to_string(threads) + ",";
    return line.find(bench_key) != std::string::npos &&
        line.find(threads_key) != std::string::npos;
}

} // namespace detail

/**
 * Record one timed bench run into the perf trajectory:
 *
 *  - bench_out/perf_summary.json keeps the latest wall time per
 *    (bench, threads) pair, so serial-vs-parallel speedup is a
 *    single-file read;
 *  - bench_out/perf_trajectory.csv appends every run, preserving the
 *    full history across sessions.
 *
 * The thread count is read from the parallel layer, so callers only
 * pass what the layer cannot know. @p faults is the number of faults
 * a `--fault-plan` injected during the run (0 when no plan was
 * active), so degraded runs are distinguishable in the trajectory.
 * @p extra optionally splices additional `"key": value` JSON members
 * into the summary entry (they do not appear in the CSV trajectory).
 */
inline void
recordPerf(const std::string &bench, std::size_t trials,
           double wall_seconds, std::uint64_t faults = 0,
           const std::string &extra = "")
{
    const std::size_t threads = parallel::threadCount();

    // Benches that write no per-series CSV still owe the trajectory
    // files, so make sure the output directory exists.
    std::error_code ec;
    std::filesystem::create_directories("bench_out", ec);

    // Merge into perf_summary.json: drop any stale entry for this
    // (bench, threads) key, keep everything else.
    const std::string summary_path = "bench_out/perf_summary.json";
    std::vector<std::string> entries;
    {
        std::ifstream in(summary_path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"bench\":") == std::string::npos)
                continue;
            if (line.size() >= 1 && line.back() == ',')
                line.pop_back();
            if (!detail::matchesPerfKey(line, bench, threads))
                entries.push_back(line);
        }
    }
    entries.push_back(detail::perfEntryLine(
        bench, trials, threads, wall_seconds, faults, extra));
    {
        std::ofstream out(summary_path);
        out << "[\n";
        for (std::size_t i = 0; i < entries.size(); ++i) {
            out << entries[i]
                << (i + 1 < entries.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

    const std::string trajectory_path =
        "bench_out/perf_trajectory.csv";
    const bool fresh = !std::ifstream(trajectory_path).good();
    std::ofstream csv(trajectory_path, std::ios::app);
    if (fresh)
        csv << "bench,trials,threads,wall_s,faults\n";
    csv << bench << ',' << trials << ',' << threads << ','
        << wall_seconds << ',' << faults << '\n';

    std::printf("perf: %s trials=%zu threads=%zu wall=%.3f s "
                "(-> %s)\n",
                bench.c_str(), trials, threads, wall_seconds,
                summary_path.c_str());
}

} // namespace fairco2::bench

#endif // FAIRCO2_BENCH_BENCH_UTIL_HH
