/**
 * @file
 * The signal_year workload: one year of one-minute Azure-like demand,
 * quantized to integer units (525,600 samples), streamed closed-loop
 * through an IncrementalTemporalEngine with a one-week window of
 * hourly periods (W=168, M=60, inner split {4}, cache capacity 256).
 * Every window advance publishes the newest period through a
 * SnapshotCell that one reader thread polls. The year is streamed
 * again with a fresh engine until the time is up.
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.hh"
#include "common/parallel.hh"
#include "pipeline/attribution.hh"
#include "shapley/incremental.hh"
#include "trace/generators.hh"

namespace perfbench
{
namespace
{

using namespace fairco2;
using Engine = shapley::IncrementalTemporalEngine;

constexpr std::size_t kWindowPeriods = 168; // one week of hours
constexpr std::size_t kPeriodSamples = 60;  // one-minute samples
constexpr std::size_t kCacheCapacity = 256; // >= W+1: no evictions
constexpr double kStepSeconds = 60.0;
constexpr double kPoolGrams = 1.0e9;
/** Publications per block for the latency quantiles: 1% of a block
 *  is 10 samples, so its p99 has ten beyond it. */
constexpr std::size_t kBlock = 1024;
/** Cold restarts timed per pass for recover_s. */
constexpr int kRestartsPerPass = 3;

/** What the reader polls. */
struct SignalSnapshot
{
    std::uint64_t version = 0;
    std::uint64_t period = 0;
    double meanIntensity = 0.0;
};

trace::TimeSeries
makeYear(std::uint64_t seed)
{
    trace::AzureLikeGenerator::Config config;
    config.days = 365.0;
    config.stepSeconds = kStepSeconds;
    Rng rng(seed);
    std::vector<double> demand =
        trace::AzureLikeGenerator(config).generate(rng).values();
    for (double &d : demand)
        d = std::round(d);
    return trace::TimeSeries(std::move(demand), kStepSeconds);
}

enum Stage : std::size_t
{
    kPush,
    kAdvance,
    kPublish,
};

/** Smallest / largest value: the best pass or block of a run. */
double
least(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

double
most(const std::vector<double> &values)
{
    return *std::max_element(values.begin(), values.end());
}

/** Run @p call as a traced stage, or plainly when untraced. */
template <typename Call>
decltype(auto)
timed(TickTracer *tracer, Stage stage, Call &&call)
{
    if (tracer != nullptr)
        return tracer->span(stage, call);
    return call();
}

struct SignalRun
{
    const Options &options;
    Engine::Config config;
    trace::TimeSeries year;
    double poolWindow = 0.0;
    std::size_t periods = 0;
    Result result;
    parallel::SnapshotCell<SignalSnapshot> cell;
    std::uint64_t version = 0;
    /** Published intensity per sample, current and first pass. */
    std::vector<double> values, reference;
    shapley::CacheStats cacheStats; //!< of the latest pass's engine
    /** Reader totals over all passes (traced runs time each read). */
    std::uint64_t reads = 0, versionsSeen = 0;
    double readSeconds = 0.0;
    std::vector<std::uint32_t> readNs;

    explicit SignalRun(const Options &opts) : options(opts)
    {
        config.windowPeriods = kWindowPeriods;
        config.periodSamples = kPeriodSamples;
        config.stepSeconds = kStepSeconds;
        config.innerSplits = {4};
        config.cacheCapacity = options.cacheCapacity >= 0
            ? static_cast<std::size_t>(options.cacheCapacity)
            : kCacheCapacity;
    }

    /** Generate the year (the set-up); returns its seconds. */
    double
    setUp()
    {
        const Clock::time_point t0 = Clock::now();
        year = makeYear(options.seed);
        const double seconds = secondsBetween(t0, Clock::now());
        periods = year.size() / kPeriodSamples;
        // attributeIncremental's per-window pool share.
        poolWindow = kPoolGrams *
            static_cast<double>(kWindowPeriods * kPeriodSamples) /
            static_cast<double>(year.size());
        values.resize(year.size());
        return seconds;
    }

    /** Efficiency of one publication: attributed + unattributed equals
     *  the carbon it was given, and the published intensity carries
     *  the attributed grams over the period's demand. */
    void
    checkEfficiency(double attributed, double unattributed, double grams,
                    std::size_t first_sample, std::size_t samples,
                    std::uint64_t period)
    {
        const double tol = pipeline::kEfficiencyTolerance *
            std::max(std::abs(grams), 1.0);
        double carried = 0.0;
        for (std::size_t i = first_sample; i < first_sample + samples; ++i)
            carried += values[i] * year[i];
        carried *= kStepSeconds;
        if (std::abs(attributed + unattributed - grams) > tol ||
            std::abs(carried - attributed) > tol)
            result.fail("period " + std::to_string(period) +
                        " breaks efficiency");
    }

    /** What one pass over the year measured. */
    struct Pass
    {
        double seconds = 0.0;
        std::vector<double> advances; //!< seconds per publication
        std::vector<double> gaps;     //!< reader-seen, seconds
    };

    /** Stream the year once through a fresh engine while one reader
     *  polls the published snapshots. */
    Pass
    pass(TickTracer *tracer)
    {
        Pass out;
        PollingReader reader([this] { return cell.read().version; },
                             options.trace);
        const Clock::time_point start = Clock::now();
        Engine engine(config);
        const auto &demand = year.values();
        for (std::size_t p = 0; p < periods; ++p) {
            if (tracer != nullptr)
                tracer->beginTick(p);
            const Clock::time_point t0 = Clock::now();
            timed(tracer, kPush, [&] {
                for (std::size_t i = 0; i < kPeriodSamples; ++i)
                    engine.pushSample(demand[p * kPeriodSamples + i]);
            });
            if (!engine.windowReady()) {
                if (tracer != nullptr)
                    tracer->endTick();
                continue;
            }
            // A period's advance runs from its first push to its
            // publication; copying and checking the output come after.
            const auto publish = [&](double mean) {
                const SignalSnapshot snap{++version, p, mean};
                timed(tracer, kPublish, [&] { cell.publish(snap); });
                out.advances.push_back(secondsBetween(t0, Clock::now()));
                if (tracer != nullptr)
                    tracer->endTick();
                ++result.attempted;
            };
            if (p + 1 == kWindowPeriods) {
                // First full window: publish all W periods at once.
                const Engine::WindowResult window = timed(
                    tracer, kAdvance,
                    [&] { return engine.computeWindow(poolWindow); });
                const auto &intensity = window.intensity.values();
                publish(intensity.back());
                std::copy(intensity.begin(), intensity.end(),
                          values.begin());
                checkEfficiency(window.attributedGrams,
                                window.unattributedGrams, poolWindow, 0,
                                intensity.size(), p);
            } else {
                const Engine::PeriodResult newest = timed(
                    tracer, kAdvance,
                    [&] { return engine.computeNewestPeriod(poolWindow); });
                publish(newest.intensity.back());
                std::copy(newest.intensity.begin(), newest.intensity.end(),
                          values.begin() + static_cast<std::ptrdiff_t>(
                                               p * kPeriodSamples));
                checkEfficiency(newest.attributedGrams,
                                newest.unattributedGrams,
                                newest.periodGrams, p * kPeriodSamples,
                                kPeriodSamples, p);
            }
        }
        out.seconds = secondsBetween(start, Clock::now());
        PollingReader::Tally &tally = reader.stop();
        out.gaps = gaps(tally.versionTimes);
        reads += tally.reads;
        readSeconds += tally.seconds;
        versionsSeen += tally.versionTimes.size();
        readNs.insert(readNs.end(), tally.readNs.begin(),
                      tally.readNs.end());
        cacheStats = engine.cacheStats();

        if (reference.empty()) {
            reference = values;
        } else if (std::memcmp(values.data(), reference.data(),
                               values.size() * sizeof(double)) != 0) {
            result.fail("a later pass published a different stream",
                        periods - kWindowPeriods + 1);
        }
        return out;
    }

    /** The stream must equal pipeline::attributeIncremental bitwise,
     *  and that reference must conserve the pool. */
    void
    checkAgainstPipeline()
    {
        const pipeline::AttributionOutput out =
            pipeline::attributeIncremental(
                year, kPoolGrams, kWindowPeriods, kPeriodSamples,
                config.innerSplits, config.cacheCapacity);
        const auto &want = out.intensity.values();
        std::uint64_t bad = 0;
        for (std::size_t p = 0; p < periods; ++p)
            if (std::memcmp(&reference[p * kPeriodSamples],
                            &want[p * kPeriodSamples],
                            kPeriodSamples * sizeof(double)) != 0)
                ++bad;
        if (bad > 0)
            result.fail(std::to_string(bad) + " periods differ from "
                                              "attributeIncremental",
                        bad);
        if (std::abs(out.attributedGrams + out.unattributedGrams -
                     kPoolGrams) >
            pipeline::kEfficiencyTolerance * kPoolGrams)
            result.fail("attributed + unattributed != pool", 0);
    }

    /** Cold restart: a fresh engine refilled with the last window's
     *  samples must republish the newest period bit for bit. */
    std::vector<double>
    restarts(int count)
    {
        const std::size_t first = (periods - kWindowPeriods) * kPeriodSamples;
        const std::size_t last = (periods - 1) * kPeriodSamples;
        std::vector<double> seconds;
        for (int r = 0; r < count; ++r) {
            const Clock::time_point t0 = Clock::now();
            Engine engine(config);
            for (std::size_t i = first; i < first + kWindowPeriods *
                                                    kPeriodSamples;
                 ++i)
                engine.pushSample(year[i]);
            const Engine::PeriodResult newest =
                engine.computeNewestPeriod(poolWindow);
            seconds.push_back(secondsBetween(t0, Clock::now()));
            ++result.attempted;
            if (std::memcmp(newest.intensity.data(), &reference[last],
                            kPeriodSamples * sizeof(double)) != 0)
                result.fail("restart did not republish the newest period");
        }
        return seconds;
    }
};

} // namespace

Result
runSignalYear(const Options &options)
{
    parallel::setThreadCount(1);
    SignalRun run(options);
    TickTracer tracer({"push", "advance", "publish"}, options.tickCsv);
    // Rates are taken per pass and latency quantiles per block of
    // kBlock publications. The run reports the best pass or block
    // (setup_s: the median set-up), scaled by the run's median host
    // slowdown. See README.md, "Noise".
    std::vector<double> slowdowns, setups, rates, sample_rates, restarts, adv50,
        adv99, gap50, gap90, traced, untraced;
    for (TimeBox box(options.seconds); box.another();) {
        slowdowns.push_back(hostSlowdown());
        setups.push_back(run.setUp());
        const SignalRun::Pass pass = run.pass(nullptr);
        const double advances = static_cast<double>(pass.advances.size());
        untraced.push_back(pass.seconds);
        rates.push_back(advances / pass.seconds);
        sample_rates.push_back(static_cast<double>(run.year.size()) /
                               pass.seconds);
        for (std::size_t b = 0; b + kBlock <= pass.advances.size();
             b += kBlock) {
            const std::vector<double> block(
                pass.advances.begin() + static_cast<std::ptrdiff_t>(b),
                pass.advances.begin() +
                    static_cast<std::ptrdiff_t>(b + kBlock));
            adv50.push_back(quantile(block, 0.5));
            adv99.push_back(quantile(block, 0.99));
        }
        for (std::size_t b = 0; b + kBlock <= pass.gaps.size();
             b += kBlock) {
            const std::vector<double> block(
                pass.gaps.begin() + static_cast<std::ptrdiff_t>(b),
                pass.gaps.begin() + static_cast<std::ptrdiff_t>(b + kBlock));
            gap50.push_back(quantile(block, 0.5));
            gap90.push_back(quantile(block, 0.9));
        }
        const std::vector<double> r = run.restarts(kRestartsPerPass);
        restarts.insert(restarts.end(), r.begin(), r.end());
        if (options.trace) {
            tracer.setLabel("pass-" + std::to_string(traced.size() + 1));
            traced.push_back(run.pass(&tracer).seconds);
        }
    }
    run.checkAgainstPipeline();
    std::printf("passes %zu\n", untraced.size());

    if (!options.trace) {
        const double slow = median(slowdowns);
        std::printf("host slowdown %.3f\n", slow);
        run.result.add("setup_s", median(setups) / slow, "s");
        run.result.add("periods_per_s", most(rates) * slow, "1/s");
        run.result.add("samples_per_s", most(sample_rates) * slow, "1/s");
        run.result.add("publish_gap_p50_ms", least(gap50) / slow * 1e3,
                       "ms");
        run.result.add("publish_gap_p90_ms", least(gap90) / slow * 1e3,
                       "ms");
        run.result.add("recover_s", least(restarts) / slow, "s");
        run.result.add("advance_p50_us", least(adv50) / slow * 1e6, "us");
        run.result.add("advance_p99_us", least(adv99) / slow * 1e6, "us");
        run.result.add("peak_rss_mb", peakRssMb(), "MB");
        return std::move(run.result);
    }

    LayerValues layer;
    const auto mean = [&](Stage s) {
        const TickTracer::Stage &stage = tracer.stage(s);
        return stage.calls == 0
            ? 0.0
            : stage.seconds / static_cast<double>(stage.calls);
    };
    layer["shapley.push_us"] = mean(kPush) * 1e6;
    layer["shapley.advance_us"] = mean(kAdvance) * 1e6;
    layer["parallel.publish_ns"] = mean(kPublish) * 1e9;
    std::vector<double> read_ns(run.readNs.begin(), run.readNs.end());
    layer["parallel.read_p50_ns"] = quantile(read_ns, 0.5);
    layer["parallel.read_p99_ns"] = quantile(read_ns, 0.99);
    layer["parallel.reads_per_s"] =
        static_cast<double>(run.reads) / run.readSeconds;
    layer["parallel.versions_seen"] =
        static_cast<double>(run.versionsSeen) /
        static_cast<double>(untraced.size() + traced.size());
    const shapley::CacheStats &cache = run.cacheStats;
    const double advances =
        static_cast<double>(run.periods - kWindowPeriods + 1);
    layer["shapley.cache_hits_per_advance"] =
        static_cast<double>(cache.hits) / advances;
    layer["shapley.cache_hit_ratio"] = cache.hits + cache.misses == 0
        ? 0.0
        : static_cast<double>(cache.hits) /
            static_cast<double>(cache.hits + cache.misses);
    layer["shapley.cache_misses"] = static_cast<double>(cache.misses);
    layer["shapley.cache_evictions"] =
        static_cast<double>(cache.evictions);
    layer["shapley.cache_invalidations"] =
        static_cast<double>(cache.invalidations);
    layer["cache.stored_bytes"] = static_cast<double>(cache.storedBytes);
    layer["trace.generate_s"] = median(setups);
    addTracerMetrics(tracer, median(traced), median(untraced), layer,
                     run.result);
    addLayerMetrics(run.result, layer);
    return std::move(run.result);
}

} // namespace perfbench
