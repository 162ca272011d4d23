/**
 * @file
 * Entry point of the repository benchmark:
 *
 *     perfbench --workload serve_steady|serve_overload|signal_year
 *               --seed N --seconds S --trace 0|1
 *               [--work-dir DIR] [--tick-csv PATH]
 *
 * Prints a machine descriptor, one line per metric, and as its last
 * line the JSON result object
 * `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
 * output check failed, 2 on bad arguments. See README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <sys/resource.h>

#include "bench.hh"

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
hostSlowdown()
{
    static double table[1u << 13];
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 32000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x & 8191] += 1.0;
        acc += static_cast<double>(x & 1023) * 1e-3;
    }
    const double seconds = secondsBetween(start, Clock::now());
    // Keep the loop's results observable so it is not optimized out.
    volatile double sink = acc + table[x & 8191];
    (void)sink;
    return seconds / kReferenceLoopSeconds;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::vector<double>
gaps(const std::vector<double> &times)
{
    std::vector<double> out;
    for (std::size_t i = 1; i < times.size(); ++i)
        out.push_back(times[i] - times[i - 1]);
    return out;
}

TickTracer::TickTracer(std::vector<std::string> stage_names,
                       const std::string &csv_path)
    : tickStage_(stage_names.size(), 0.0)
{
    for (std::string &name : stage_names)
        stages_.push_back({std::move(name), 0.0, 0});
    if (csv_path.empty())
        return;
    const bool fresh = !std::filesystem::exists(csv_path);
    csv_ = std::fopen(csv_path.c_str(), "a");
    if (csv_ == nullptr) {
        std::fprintf(stderr, "perfbench: cannot open --tick-csv %s\n",
                     csv_path.c_str());
        std::exit(2);
    }
    if (fresh) {
        std::fprintf(csv_, "run,tick,tick_us");
        for (const Stage &stage : stages_)
            std::fprintf(csv_, ",%s_us", stage.name.c_str());
        std::fprintf(csv_, ",unexplained_us\n");
    }
}

TickTracer::~TickTracer()
{
    if (csv_ != nullptr)
        std::fclose(csv_);
}

void
TickTracer::endTick()
{
    const double wall = secondsBetween(tickStart_, Clock::now());
    double covered = 0.0;
    for (double s : tickStage_)
        covered += s;
    const double unexplained = wall - covered;
    ++ticks_;
    tickSeconds_ += wall;
    unexplained_ += unexplained;
    if (std::abs(unexplained) >
        std::max(kReconcileShare * wall, kReconcileSlackSeconds))
        ++unreconciled_;
    if (csv_ == nullptr)
        return;
    std::fprintf(csv_, "%s,%llu,%.3f", label_.c_str(),
                 static_cast<unsigned long long>(tick_), wall * 1e6);
    for (double s : tickStage_)
        std::fprintf(csv_, ",%.3f", s * 1e6);
    std::fprintf(csv_, ",%.3f\n", unexplained * 1e6);
}

void
addTracerMetrics(const TickTracer &tracer, double traced_seconds,
                 double untraced_seconds, LayerValues &layer,
                 Result &result)
{
    layer["bench.trace_overhead_pct"] =
        (traced_seconds / untraced_seconds - 1.0) * 100.0;
    layer["bench.unexplained_tick_pct"] =
        tracer.unexplainedSeconds() / tracer.tickSeconds() * 100.0;
    layer["bench.unreconciled_ticks"] =
        static_cast<double>(tracer.unreconciled());
    if (tracer.unreconciled() > 0)
        result.fail(std::to_string(tracer.unreconciled()) + " of " +
                        std::to_string(tracer.ticks()) +
                        " ticks: stage spans do not sum to the tick's "
                        "wall time",
                    0);
}

void
addLayerMetrics(Result &result, const LayerValues &layer)
{
    static const struct
    {
        const char *name;
        const char *unit;
    } kLayerMetrics[] = {
        {"server.arrivals_ms", "ms"},
        {"server.close_ms", "ms"},
        {"server.replay_ms", "ms"},
        {"server.offers", "count"},
        {"server.admitted", "count"},
        {"server.deferred", "count"},
        {"server.rejected", "count"},
        {"server.shed", "count"},
        {"server.samples_ingested", "count"},
        {"server.admit_ratio", "ratio"},
        {"pipeline.overload_escalations", "count"},
        {"pipeline.overload_recoveries", "count"},
        {"pipeline.proportional_publishes", "count"},
        {"durability.append_ms", "ms"},
        {"durability.scrub_ms", "ms"},
        {"durability.scrub_records", "count"},
        {"durability.load_ms", "ms"},
        {"durability.load_mb_per_s", "MB/s"},
        {"durability.raw_bytes_per_tick", "B"},
        {"durability.stored_bytes_per_tick", "B"},
        {"durability.seals", "count"},
        {"parallel.publish_ns", "ns"},
        {"parallel.read_p50_ns", "ns"},
        {"parallel.read_p99_ns", "ns"},
        {"parallel.reads_per_s", "1/s"},
        {"parallel.versions_seen", "count"},
        {"shapley.push_us", "us"},
        {"shapley.advance_us", "us"},
        {"shapley.cache_hits_per_advance", "count"},
        {"shapley.cache_hit_ratio", "ratio"},
        {"shapley.cache_misses", "count"},
        {"shapley.cache_evictions", "count"},
        {"shapley.cache_invalidations", "count"},
        {"cache.stored_bytes", "B"},
        {"trace.generate_s", "s"},
        {"bench.trace_overhead_pct", "%"},
        {"bench.unexplained_tick_pct", "%"},
        {"bench.unreconciled_ticks", "count"},
    };
    std::size_t known = 0;
    for (const auto &metric : kLayerMetrics) {
        const auto it = layer.find(metric.name);
        known += it != layer.end();
        result.add(metric.name, it == layer.end() ? 0.0 : it->second,
                   metric.unit);
    }
    if (known != layer.size())
        throw std::logic_error("perfbench: unlisted per-layer metric");
}

} // namespace perfbench

namespace
{

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void
usage(const char *problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "serve_steady|serve_overload|signal_year --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--tick-csv PATH] [--duration-periods N] "
                 "[--scrub-periods N] [--cache-capacity N]\n",
                 problem);
    std::exit(2);
}

std::int64_t
parseInt(const char *text)
{
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        usage("expected an integer flag value");
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = static_cast<std::uint64_t>(parseInt(value));
        else if (flag == "--seconds")
            options.seconds = static_cast<double>(parseInt(value));
        else if (flag == "--trace")
            options.trace = parseInt(value) != 0;
        else if (flag == "--work-dir")
            options.workDir = value;
        else if (flag == "--tick-csv")
            options.tickCsv = value;
        else if (flag == "--duration-periods")
            options.durationPeriods = parseInt(value);
        else if (flag == "--scrub-periods")
            options.scrubPeriods = parseInt(value);
        else if (flag == "--cache-capacity")
            options.cacheCapacity = parseInt(value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (options.seconds < 1.0)
        usage("--seconds must be >= 1");
    return options;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/** JSON string literal (the descriptor fields are plain text). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text)
        if (c == '"' || c == '\\')
            out += std::string("\\") + c;
        else if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    return out + "\"";
}

void
printResult(const Result &result)
{
    for (const std::string &problem : result.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     problem.c_str());
    for (const Result::Metric &m : result.metrics)
        std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                result.correct() ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Result::Metric &m = result.metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    const bool serve = options.workload == "serve_steady" ||
        options.workload == "serve_overload";
    if (!serve && options.workload != "signal_year")
        usage("unknown --workload");

    std::printf("machine {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"threads\": %zu}\n",
                std::thread::hardware_concurrency(),
                quoted(cpuModel()).c_str(),
                quoted("g++ " __VERSION__).c_str(),
                quoted(PERFBENCH_BUILD_TYPE).c_str(),
                serve ? perfbench::kServeThreads + 1 : std::size_t{2});
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::fflush(stdout);

    Result result;
    try {
        result = serve ? perfbench::runServe(
                             options,
                             options.workload == "serve_overload")
                       : perfbench::runSignalYear(options);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     options.workload.c_str(), error.what());
        return 1;
    }
    printResult(result);
    return result.correct() ? 0 : 1;
}
