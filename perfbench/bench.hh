/**
 * @file
 * Shared pieces of the repository benchmark: options, the result every
 * workload returns, quantiles, the polling snapshot reader, and the
 * per-tick stage tracer of the traced runs. See README.md.
 */

#ifndef FAIRCO2_PERFBENCH_BENCH_HH
#define FAIRCO2_PERFBENCH_BENCH_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for WAL segments (created, then removed). */
    std::string workDir = "perfbench-work";
    /** Opt-in per-tick CSV of the traced run ("" = off). */
    std::string tickCsv;
    /** Workload overrides for the baseline rows in README.md; a
     *  negative value keeps the workload's own setting. */
    std::int64_t durationPeriods = -1;
    std::int64_t scrubPeriods = -1;
    std::int64_t cacheCapacity = -1;
};

/** What one workload run reports. */
struct Result
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output checks that did not hold (printed to stderr). */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    bool correct() const { return problems.empty(); }

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record a failed check; @p operations failed with it. */
    void
    fail(std::string why, std::uint64_t operations = 1)
    {
        problems.push_back(std::move(why));
        failed += operations;
    }
};

/** Linear-interpolated quantile (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * How much slower than undisturbed the host runs right now: the time
 * of a fixed CPU-bound reference loop (integer, floating-point and
 * cache-resident work that does not touch fairco2) over
 * kReferenceLoopSeconds. See README.md, "Noise".
 */
double hostSlowdown();
constexpr double kReferenceLoopSeconds = 0.1;

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Differences between consecutive timestamps. */
std::vector<double> gaps(const std::vector<double> &times);

/**
 * The time box of a run: another() starts a repetition only while the
 * run is expected to end within its seconds (the mean repetition so
 * far decides); the first repetition always runs.
 */
class TimeBox
{
  public:
    explicit TimeBox(double seconds)
        : seconds_(seconds), start_(Clock::now())
    {
    }

    bool
    another()
    {
        const double elapsed = secondsBetween(start_, Clock::now());
        if (reps_ > 0 &&
            elapsed + elapsed / static_cast<double>(reps_) > seconds_)
            return false;
        ++reps_;
        return true;
    }

  private:
    double seconds_;
    Clock::time_point start_;
    std::size_t reps_ = 0;
};

/** Busy threads the workloads run with: engine threads + one reader. */
constexpr std::size_t kServeThreads = 2;

/**
 * One reader thread spinning on a snapshot read function, as a
 * scheduler polling the live signal would. It records when each new
 * snapshot version first became visible, and, when @p time_reads,
 * the latency of every read (the traced run's parallel.read_*).
 */
class PollingReader
{
  public:
    struct Tally
    {
        /** Seconds since start at which versions 1, 2, ... were
         *  first seen. */
        std::vector<double> versionTimes;
        std::uint64_t reads = 0;
        std::uint64_t lastVersion = 0;
        double seconds = 0.0; //!< polling wall time
        std::vector<std::uint32_t> readNs;
    };

    template <typename ReadVersion>
    PollingReader(ReadVersion read_version, bool time_reads)
        : start_(Clock::now())
    {
        thread_ = std::thread([this, read_version, time_reads] {
            constexpr std::size_t kMaxTimedReads = 1u << 20;
            if (time_reads)
                tally_.readNs.reserve(kMaxTimedReads);
            while (!stop_.load(std::memory_order_acquire)) {
                const Clock::time_point before = Clock::now();
                const std::uint64_t version = read_version();
                const Clock::time_point after = Clock::now();
                ++tally_.reads;
                if (time_reads && tally_.readNs.size() < kMaxTimedReads)
                    tally_.readNs.push_back(static_cast<std::uint32_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(after - before)
                            .count()));
                if (version != tally_.lastVersion) {
                    tally_.lastVersion = version;
                    tally_.versionTimes.push_back(
                        secondsBetween(start_, after));
                }
            }
        });
    }

    ~PollingReader() { stop(); }

    PollingReader(const PollingReader &) = delete;
    PollingReader &operator=(const PollingReader &) = delete;

    /** Stop and join the thread; returns what it saw. */
    Tally &
    stop()
    {
        if (thread_.joinable()) {
            stop_.store(true, std::memory_order_release);
            thread_.join();
            tally_.seconds = secondsBetween(start_, Clock::now());
        }
        return tally_;
    }

  private:
    Clock::time_point start_;
    std::atomic<bool> stop_{false};
    Tally tally_;
    std::thread thread_;
};

/**
 * Per-tick stage spans of a traced run. Each tick is one period of
 * the workload; each stage span wraps one public call into a layer.
 * endTick() reconciles the tick: the spans must cover its measured
 * wall time up to kReconcileShare of it or kReconcileSlackSeconds,
 * whichever is larger. With a CSV path, every tick is also written
 * as one row; without one, nothing is formatted.
 */
class TickTracer
{
  public:
    static constexpr double kReconcileShare = 0.02;
    static constexpr double kReconcileSlackSeconds = 200e-6;

    struct Stage
    {
        std::string name;
        double seconds = 0.0;
        std::uint64_t calls = 0;
    };

    TickTracer(std::vector<std::string> stage_names,
               const std::string &csv_path);
    ~TickTracer();

    /** Names the ticks that follow in the CSV's `run` column. */
    void setLabel(std::string label) { label_ = std::move(label); }

    TickTracer(const TickTracer &) = delete;
    TickTracer &operator=(const TickTracer &) = delete;

    void
    beginTick(std::uint64_t tick)
    {
        tick_ = tick;
        std::fill(tickStage_.begin(), tickStage_.end(), 0.0);
        tickStart_ = Clock::now();
    }

    /** Run @p call as stage @p stage of the current tick. */
    template <typename Call>
    decltype(auto)
    span(std::size_t stage, Call &&call)
    {
        const Clock::time_point start = Clock::now();
        if constexpr (std::is_void_v<decltype(call())>) {
            call();
            note(stage, start);
        } else {
            decltype(auto) out = call();
            note(stage, start);
            return out;
        }
    }

    void endTick();

    const Stage &stage(std::size_t i) const { return stages_[i]; }
    std::uint64_t ticks() const { return ticks_; }
    double tickSeconds() const { return tickSeconds_; }
    /** Tick time no span covered, summed over all ticks. */
    double unexplainedSeconds() const { return unexplained_; }
    /** Ticks whose spans missed the reconcile tolerance. */
    std::uint64_t unreconciled() const { return unreconciled_; }

  private:
    void
    note(std::size_t stage, Clock::time_point start)
    {
        const double s = secondsBetween(start, Clock::now());
        tickStage_[stage] += s;
        stages_[stage].seconds += s;
        ++stages_[stage].calls;
    }

    std::vector<Stage> stages_;
    std::vector<double> tickStage_;
    std::uint64_t tick_ = 0;
    Clock::time_point tickStart_;
    std::uint64_t ticks_ = 0;
    double tickSeconds_ = 0.0;
    double unexplained_ = 0.0;
    std::uint64_t unreconciled_ = 0;
    std::FILE *csv_ = nullptr;
    std::string label_;
};

/** Per-layer values of a traced run by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * Add the tracer's own figures to @p layer: the traced-vs-untraced
 * overhead from the median traced and untraced repetition times, the
 * share of tick time no span covered, and the count of ticks that
 * missed the reconcile tolerance (each one also fails the run).
 */
void addTracerMetrics(const TickTracer &tracer, double traced_seconds,
                      double untraced_seconds, LayerValues &layer,
                      Result &result);

/** Add every per-layer metric, in README order, to @p result; a
 *  layer the workload does not run reports 0. */
void addLayerMetrics(Result &result, const LayerValues &layer);

// Workload entry points (serve.cc, signal.cc).
Result runServe(const Options &options, bool overload);
Result runSignalYear(const Options &options);

} // namespace perfbench

#endif // FAIRCO2_PERFBENCH_BENCH_HH
