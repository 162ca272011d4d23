/**
 * @file
 * The serve workloads: `fairco2 serve` with a write-ahead log, driven
 * closed-loop (the simulated clock advances as fast as the code runs).
 *
 * Untraced runs repeat {fresh SignalServer::run with one reader
 * thread polling snapshot(), then a --recover run over that run's own
 * log} until the time is up. Traced runs alternate one such untraced
 * repetition with a re-drive of Replica, WalWriter and SnapshotCell in
 * SignalServer's order (arrivals, WAL append, close, publish, scrub
 * every scrubPeriods periods; then recovery), with a span around each
 * call.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "common/parallel.hh"
#include "durability/wal.hh"
#include "server/signalserver.hh"

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;
using namespace fairco2;

/** Arrival periods per repetition. Scrub cost grows with the log, so
 *  this is part of the workload's shape, not just its length. */
constexpr std::uint64_t kDurationPeriods = 32;
/** serve_overload's admitted batches per period, below the ~12.8k
 *  the population offers, so the governor cycles. */
constexpr std::uint64_t kOverloadAdmissionRate = 8000;
/** Timed server constructions per repetition (setup_s). */
constexpr int kSetupsPerRep = 5;

/** signalSignature() of the first repetition for seeds 1..10 at the
 *  workload's defaults. Each equals what `fairco2 serve --tenants
 *  100000 --shards 8 --duration-periods 32 --wal-dir DIR --seed N`
 *  prints (with `--admission-rate 8000` for serve_overload). */
struct Pin
{
    bool overload;
    std::uint64_t seed;
    std::uint64_t signature;
};
constexpr Pin kPins[] = {
    {false, 1, 0x072bc09f3c46b0f9ULL},
    {false, 2, 0x23b36117e0769dabULL},
    {false, 3, 0xa3a1a6e7d1d445a4ULL},
    {false, 4, 0x5bc35eaeec5cbe4eULL},
    {false, 5, 0xfabec48c020b3e82ULL},
    {false, 6, 0xe321af9c4a5d2d34ULL},
    {false, 7, 0xc36b6041a38a98aaULL},
    {false, 8, 0x8c47f89c8e12afd7ULL},
    {false, 9, 0x3cb71d31bd6057c3ULL},
    {false, 10, 0x5cd016631a651d5eULL},
    {true, 1, 0x735f63c6fe6527fbULL},
    {true, 2, 0x198bccecf918d536ULL},
    {true, 3, 0x57a04f8dba322721ULL},
    {true, 4, 0x3e069389eed5ee34ULL},
    {true, 5, 0x5c7a59bf4e4cb59eULL},
    {true, 6, 0x4f79357b27c110ebULL},
    {true, 7, 0x42d3e311996810daULL},
    {true, 8, 0x10863d1cf9cf57d5ULL},
    {true, 9, 0x27e7d8a236be17f1ULL},
    {true, 10, 0xe958bd3105545eddULL},
};

server::ServerConfig
makeConfig(const Options &options, bool overload, const std::string &dir)
{
    server::ServerConfig config;
    config.tenants = 100000;
    config.shards = 8;
    config.zipfS = 1.1;
    config.admissionRate = overload ? kOverloadAdmissionRate : 0;
    config.durationPeriods = options.durationPeriods > 0
        ? static_cast<std::uint64_t>(options.durationPeriods)
        : kDurationPeriods;
    config.windowPeriods = 8;
    config.periodSamples = 12;
    config.seed = options.seed;
    // `fairco2 serve --wal-dir` defaults: identity codec, 16-record
    // segments, scrub every 8 periods.
    config.durability.walDir = dir;
    config.durability.walCodec = cache::Codec::Identity;
    config.durability.walSegmentRecords = 16;
    config.durability.scrubPeriods = options.scrubPeriods >= 0
        ? static_cast<std::uint64_t>(options.scrubPeriods)
        : 8;
    return config;
}

bool
defaultShape(const Options &options)
{
    return options.durationPeriods < 0 && options.scrubPeriods < 0;
}

std::uint64_t
horizon(const server::ServerConfig &config)
{
    return config.durationPeriods + config.maxBatchPeriods + 1;
}

bool
scrubDue(const server::ServerConfig &config, std::uint64_t period)
{
    const std::uint64_t every = config.durability.scrubPeriods;
    return every > 0 && period > 0 && period % every == 0;
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

std::uint64_t
signatureOf(const std::vector<double> &intensity)
{
    server::ServerReport report;
    report.publishedIntensity = intensity;
    return report.signalSignature();
}

/** Publishes of @p got that differ bitwise from @p want, counting a
 *  length difference as that many mismatches. */
std::uint64_t
mismatches(const std::vector<double> &got, const std::vector<double> &want)
{
    const std::size_t n = std::min(got.size(), want.size());
    std::uint64_t bad = std::max(got.size(), want.size()) - n;
    for (std::size_t i = 0; i < n; ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
            ++bad;
    return bad;
}

/** What the repetitions of one run share and check against. */
struct ServeRun
{
    const Options &options;
    bool overload;
    server::ServerConfig config;
    Result result;
    /** Published intensities of the first repetition. */
    std::vector<double> reference;
    /** Traced runs: reader-side read latencies, all repetitions. */
    std::vector<std::uint32_t> readNs;

    ServeRun(const Options &opts, bool over)
        : options(opts), overload(over),
          config(makeConfig(opts, over, opts.workDir + "/wal"))
    {
    }

    /** Check one live run's published stream (untraced or traced). */
    void
    checkStream(const std::vector<double> &published, const char *what)
    {
        const std::uint64_t want = config.durationPeriods -
            config.windowPeriods + 1;
        result.attempted += published.size();
        if (published.size() != want)
            result.fail(std::string(what) + ": " +
                            std::to_string(published.size()) +
                            " publishes, expected " + std::to_string(want),
                        0);
        if (reference.empty()) {
            reference = published;
            const std::uint64_t signature = signatureOf(published);
            for (const Pin &pin : kPins)
                if (pin.overload == overload &&
                    pin.seed == options.seed && defaultShape(options) &&
                    pin.signature != signature)
                    result.fail(std::string(what) +
                                    ": signature differs from the pin",
                                published.size());
            std::printf("signature %016llx\n",
                        static_cast<unsigned long long>(signature));
            return;
        }
        const std::uint64_t bad = mismatches(published, reference);
        if (bad > 0)
            result.fail(std::string(what) + ": " + std::to_string(bad) +
                            " publishes differ from the first run",
                        bad);
    }

    /** Check a recovery republished @p live bit for bit. */
    void
    checkRecovery(const std::vector<double> &recovered,
                  const std::vector<double> &live, const char *what)
    {
        ++result.attempted;
        if (mismatches(recovered, live) != 0)
            result.fail(std::string(what) +
                        ": recovery did not republish the signature");
    }

    /** One untraced repetition: kSetupsPerRep timed constructions of
     *  the server, a live run with a polling reader, then recovery
     *  from its log. */
    struct Rep
    {
        std::vector<double> setups, gaps;
        double live = 0.0, recover = 0.0;
        std::uint64_t periods = 0, samples = 0;
    };

    Rep
    untracedRep()
    {
        Rep rep;
        freshDir(config.durability.walDir);
        std::unique_ptr<server::SignalServer> srv;
        for (int i = 0; i < kSetupsPerRep; ++i) {
            srv.reset();
            const Clock::time_point t0 = Clock::now();
            auto fresh = std::make_unique<server::SignalServer>(config);
            rep.setups.push_back(secondsBetween(t0, Clock::now()));
            srv = std::move(fresh);
        }
        PollingReader reader([&srv] { return srv->snapshot().version; },
                             false);
        const Clock::time_point t1 = Clock::now();
        const server::ServerReport report = srv->run();
        const Clock::time_point t2 = Clock::now();
        const PollingReader::Tally &tally = reader.stop();

        checkStream(report.publishedIntensity, "live run");
        const server::ServerSnapshot last = srv->snapshot();
        if (tally.lastVersion != report.publishes ||
            report.publishedIntensity.empty() ||
            std::memcmp(&last.fleetIntensity,
                        &report.publishedIntensity.back(),
                        sizeof(double)) != 0)
            result.fail("reader did not see the final publish", 0);

        server::ServerConfig recover_config = config;
        recover_config.durability.recover = true;
        const Clock::time_point t3 = Clock::now();
        server::SignalServer recovering(recover_config);
        const server::ServerReport recovered = recovering.run();
        const Clock::time_point t4 = Clock::now();
        checkRecovery(recovered.publishedIntensity,
                      report.publishedIntensity, "recover run");
        if (recovered.replayedRecords != horizon(config) ||
            recovered.droppedWalTail)
            result.fail("recover run did not replay the whole log", 0);

        rep.live = secondsBetween(t1, t2);
        rep.recover = secondsBetween(t3, t4);
        rep.periods = report.periodsClosed;
        rep.samples = report.samplesIngested;
        rep.gaps = gaps(tally.versionTimes);
        return rep;
    }

    void untraced();
    void traced();
    double tracedRep(TickTracer &tracer, LayerValues &layer);
};

void
ServeRun::untraced()
{
    // Every statistic is taken per repetition, and the run reports the
    // median repetition scaled by the run's median host slowdown. See
    // README.md, "Noise".
    std::vector<double> slowdowns, setups, rates, sample_rates, recovers,
        gap50, gap90, gap99;
    for (TimeBox box(options.seconds); box.another();) {
        slowdowns.push_back(hostSlowdown());
        const Rep rep = untracedRep();
        setups.insert(setups.end(), rep.setups.begin(), rep.setups.end());
        rates.push_back(static_cast<double>(rep.periods) / rep.live);
        sample_rates.push_back(static_cast<double>(rep.samples) /
                               rep.live);
        recovers.push_back(rep.recover);
        gap50.push_back(quantile(rep.gaps, 0.5));
        gap90.push_back(quantile(rep.gaps, 0.9));
        gap99.push_back(quantile(rep.gaps, 0.99));
    }
    const double slow = median(slowdowns);
    std::printf("repetitions %zu, host slowdown %.3f\n", rates.size(),
                slow);

    result.add("setup_s", median(setups) / slow, "s");
    result.add("periods_per_s", median(rates) * slow, "1/s");
    result.add("samples_per_s", median(sample_rates) * slow, "1/s");
    result.add("publish_gap_p50_ms", median(gap50) / slow * 1e3, "ms");
    result.add("publish_gap_p90_ms", median(gap90) / slow * 1e3, "ms");
    result.add("recover_s", median(recovers) / slow, "s");
    // The server does all of a period's work between two publishes,
    // so its per-period advance is the reader-seen publish interval.
    result.add("advance_p50_us", median(gap50) / slow * 1e6, "us");
    result.add("advance_p99_us", median(gap99) / slow * 1e6, "us");
    result.add("peak_rss_mb", peakRssMb(), "MB");
}

server::TenantPopulation::Config
populationConfig(const server::ServerConfig &config)
{
    // As SignalServer's constructor builds it.
    server::TenantPopulation::Config pc;
    pc.tenants = config.tenants;
    pc.zipfS = config.zipfS;
    pc.seed = config.seed;
    pc.periodSamples = config.periodSamples;
    pc.maxBatchPeriods = config.maxBatchPeriods;
    pc.meanDemandUnits = config.meanDemandUnits;
    return pc;
}

enum Stage : std::size_t
{
    kArrivals,
    kAppend,
    kReplay,
    kClose,
    kPublish,
    kScrub,
};

/** Traced-run state of one repetition's replica. */
struct Traced
{
    const server::ServerConfig &config;
    const server::TenantPopulation &population;
    std::uint64_t configHash;
    TickTracer &tracer;
    server::Replica replica;
    parallel::SnapshotCell<server::ServerSnapshot> cell;
    std::vector<double> published;
    std::uint64_t proportional = 0;
    std::uint64_t scrubs = 0;
    double scrubRecords = 0.0;
    Result &result;

    Traced(const server::ServerConfig &c,
           const server::TenantPopulation &pop, std::uint64_t hash,
           TickTracer &t, Result &r)
        : config(c), population(pop), configHash(hash), tracer(t),
          replica(c, pop), result(r)
    {
    }

    /** Close tick, publish, and the scrub when due: the part of a
     *  period live serving and recovery share. */
    void
    closeAndPublish(std::uint64_t period)
    {
        const server::Replica::CloseOutcome outcome = tracer.span(
            kClose, [&] { return replica.applyClose(period); });
        if (outcome.published) {
            // As SignalServer::publishOutcome builds the snapshot.
            const auto &totals = replica.admission().totals();
            server::ServerSnapshot snap;
            snap.version = published.size() + 1;
            snap.period = outcome.period;
            snap.fleetIntensity = outcome.fleetIntensity;
            snap.fleetDemandUnits =
                static_cast<double>(outcome.fleetUnits);
            snap.admitted = totals.admitted;
            snap.deferred = totals.deferred;
            snap.rejected = totals.rejected;
            snap.overloadLevel =
                static_cast<std::uint32_t>(replica.governor().level());
            snap.shards = static_cast<std::uint32_t>(config.shards);
            snap.shardIntensity = outcome.shardIntensity;
            tracer.span(kPublish, [&] { cell.publish(snap); });
            published.push_back(outcome.fleetIntensity);
            if (replica.governor().level() ==
                pipeline::OverloadLevel::Proportional)
                ++proportional;
        }
        if (scrubDue(config, period))
            tracer.span(kScrub, [&] { scrub(period); });
    }

    /** SignalServer::runScrub: re-derive the window digests from the
     *  log on disk and compare them with the replica's. */
    void
    scrub(std::uint64_t period)
    {
        durability::WalLoadResult load =
            durability::loadWal(config.durability.walDir, configHash);
        if (load.records.size() > period + 1)
            load.records.resize(period + 1);
        ++scrubs;
        scrubRecords += static_cast<double>(load.records.size());
        const durability::WindowDigests derived =
            durability::deriveWindowDigests(
                load.records, config.shards, config.windowPeriods,
                config.maxBatchPeriods + 1,
                [this](std::uint64_t tenant, std::uint64_t p) {
                    std::uint64_t units = 0;
                    for (std::uint64_t sample :
                         population.materializePeriod(tenant, p))
                        units += sample;
                    return units;
                });
        if (!(derived == replica.windowDigests()))
            result.fail("scrub at period " + std::to_string(period) +
                        ": wal-derived digests disagree");
    }
};

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        bytes += entry.file_size();
    return bytes;
}

double
ServeRun::tracedRep(TickTracer &tracer, LayerValues &layer)
{
    const std::string &dir = config.durability.walDir;
    freshDir(dir);
    const std::uint64_t hash = server::serverConfigHash(config);
    const server::TenantPopulation population(populationConfig(config));
    durability::WalWriter::Options wal_options;
    wal_options.dir = dir;
    wal_options.configHash = hash;
    wal_options.codec = config.durability.walCodec;
    wal_options.segmentRecords = config.durability.walSegmentRecords;

    // Live serving, in SignalServer::run's tick order.
    tracer.setLabel("live");
    const Clock::time_point t0 = Clock::now();
    Traced live(config, population, hash, tracer, result);
    PollingReader reader(
        [&live] { return live.cell.read().version; }, true);
    durability::WalWriter wal(wal_options);
    for (std::uint64_t p = 0; p < horizon(config); ++p) {
        tracer.beginTick(p);
        const durability::WalTickRecord record = tracer.span(
            kArrivals, [&] { return live.replica.applyArrivalsLive(p); });
        tracer.span(kAppend, [&] { wal.append(record); });
        live.closeAndPublish(p);
        tracer.endTick();
    }
    wal.seal();
    const double live_seconds = secondsBetween(t0, Clock::now());
    const PollingReader::Tally &tally = reader.stop();
    checkStream(live.published, "traced live run");

    // Recovery, as SignalServer::setupDurability + the replay ticks.
    tracer.setLabel("recover");
    Traced recovering(config, population, hash, tracer, result);
    const Clock::time_point r0 = Clock::now();
    durability::WalLoadResult load = durability::loadWal(dir, hash);
    const double load_seconds = secondsBetween(r0, Clock::now());
    durability::WalWriter::Options adopt = wal_options;
    adopt.firstSegmentIndex = load.nextSegmentIndex;
    adopt.firstRecordIndex = load.records.size() - load.tailRecords;
    durability::WalWriter adopted(adopt);
    if (load.tailRecords > 0)
        adopted.adoptTail({load.records.end() -
                               static_cast<std::ptrdiff_t>(
                                   load.tailRecords),
                           load.records.end()});
    for (const durability::WalTickRecord &record : load.records) {
        tracer.beginTick(record.period);
        tracer.span(kReplay, [&] {
            recovering.replica.applyArrivalsReplay(record);
        });
        recovering.closeAndPublish(record.period);
        tracer.endTick();
    }
    adopted.seal();
    checkRecovery(recovering.published, live.published,
                  "traced recovery");

    const auto &totals = live.replica.admission().totals();
    const auto &governor = live.replica.governor();
    const std::uint64_t scrubs = live.scrubs + recovering.scrubs;
    layer["server.offers"] = static_cast<double>(totals.offered);
    layer["server.admitted"] = static_cast<double>(totals.admitted);
    layer["server.deferred"] = static_cast<double>(totals.deferred);
    layer["server.rejected"] = static_cast<double>(totals.rejected);
    layer["server.shed"] =
        static_cast<double>(live.replica.batchesShed());
    layer["server.samples_ingested"] =
        static_cast<double>(live.replica.samplesIngested());
    layer["server.admit_ratio"] = totals.offered == 0
        ? 0.0
        : static_cast<double>(totals.admitted) /
            static_cast<double>(totals.offered);
    layer["pipeline.overload_escalations"] =
        static_cast<double>(governor.escalations());
    layer["pipeline.overload_recoveries"] =
        static_cast<double>(governor.recoveries());
    layer["pipeline.proportional_publishes"] =
        static_cast<double>(live.proportional);
    layer["durability.scrub_records"] =
        scrubs == 0 ? 0.0
                    : (live.scrubRecords + recovering.scrubRecords) /
                          static_cast<double>(scrubs);
    layer["durability.load_ms"] += load_seconds * 1e3;
    layer["durability.load_mb_per_s"] +=
        static_cast<double>(dirBytes(dir)) / 1e6 / load_seconds;
    const double ticks = static_cast<double>(wal.recordsAppended());
    layer["durability.raw_bytes_per_tick"] =
        static_cast<double>(wal.rawBytes()) / ticks;
    layer["durability.stored_bytes_per_tick"] =
        static_cast<double>(wal.storedBytes()) / ticks;
    layer["durability.seals"] = static_cast<double>(wal.segmentsSealed());
    layer["parallel.reads_per_s"] +=
        static_cast<double>(tally.reads) / tally.seconds;
    layer["parallel.versions_seen"] +=
        static_cast<double>(tally.versionTimes.size());
    readNs.insert(readNs.end(), tally.readNs.begin(), tally.readNs.end());
    return live_seconds;
}

void
ServeRun::traced()
{
    TickTracer tracer({"arrivals", "append", "replay", "close", "publish",
                       "scrub"},
                      options.tickCsv);
    LayerValues layer;
    std::vector<double> untraced_live, traced_live;
    for (TimeBox box(options.seconds); box.another();) {
        untraced_live.push_back(untracedRep().live);
        traced_live.push_back(tracedRep(tracer, layer));
    }

    // Sums over repetitions become per-repetition means.
    const double reps = static_cast<double>(traced_live.size());
    for (const char *name :
         {"durability.load_ms", "durability.load_mb_per_s",
          "parallel.reads_per_s", "parallel.versions_seen"})
        layer[name] /= reps;
    const auto mean_ms = [&](Stage s) {
        const TickTracer::Stage &stage = tracer.stage(s);
        return stage.calls == 0
            ? 0.0
            : stage.seconds * 1e3 / static_cast<double>(stage.calls);
    };
    layer["server.arrivals_ms"] = mean_ms(kArrivals);
    layer["server.close_ms"] = mean_ms(kClose);
    layer["server.replay_ms"] = mean_ms(kReplay);
    layer["durability.append_ms"] = mean_ms(kAppend);
    layer["durability.scrub_ms"] = mean_ms(kScrub);
    layer["parallel.publish_ns"] = mean_ms(kPublish) * 1e6;
    std::vector<double> read_ns(readNs.begin(), readNs.end());
    layer["parallel.read_p50_ns"] = quantile(read_ns, 0.5);
    layer["parallel.read_p99_ns"] = quantile(read_ns, 0.99);
    addTracerMetrics(tracer, median(traced_live), median(untraced_live),
                     layer, result);
    addLayerMetrics(result, layer);
}

} // namespace

Result
runServe(const Options &options, bool overload)
{
    fairco2::parallel::setThreadCount(kServeThreads);
    ServeRun run(options, overload);
    if (options.trace)
        run.traced();
    else
        run.untraced();
    std::filesystem::remove_all(options.workDir);
    return std::move(run.result);
}

} // namespace perfbench
