/**
 * @file
 * Shared engine-ownership core for incremental live signals.
 *
 * Two deployment surfaces stream demand through a
 * shapley::IncrementalTemporalEngine: LiveIntensityService's
 * incremental mode (one engine, full-window publication per push)
 * and the sharded SignalServer (one engine per shard plus a fleet
 * engine, newest-period publication per closed period). Both need
 * the same plumbing around the engine — a carbon-pool policy, the
 * first-window/advance publication split, and sample retention so a
 * cache-integrity fault can be answered by rebuilding the engine
 * and recomputing. IncrementalSignalCore owns exactly that plumbing
 * so neither surface reimplements it.
 *
 * The core retains the raw samples of the in-window periods; after
 * a CacheIntegrityError it discards the engine, replays the
 * retained samples into a fresh one, and recomputes. Because the
 * engine's output is a pure function of its window samples (cache
 * state is an optimization, never an input), the recovered result
 * is bit-identical to a fault-free computation — the invariant the
 * resilience tests pin down.
 */

#ifndef FAIRCO2_CORE_SIGNALCORE_HH
#define FAIRCO2_CORE_SIGNALCORE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "shapley/incremental.hh"

namespace fairco2::core
{

/** Engine ownership, pool policy, and fault recovery for one
 *  incremental live-signal stream. */
class IncrementalSignalCore
{
  public:
    struct Config
    {
        std::size_t windowPeriods = 24;  //!< engine window W
        std::size_t periodSamples = 12;  //!< samples per period M
        double stepSeconds = 300.0;
        /** Inner hierarchy below each period. */
        std::vector<std::size_t> innerSplits{};
        /** Sub-game cache capacity (0 = memoization off). */
        std::size_t cacheCapacity = 64;
        /** Pool policy: grams per wall-clock second, amortized over
         *  the window — windowPoolGrams() applies it. */
        double poolGramsPerSecond = 1.0;
        std::uint64_t seed = 42;
    };

    /** What one newest-period publication produced. */
    struct Publication
    {
        /** Newest period's intensity, per sample (M values). */
        std::vector<double> newestIntensity;
        /** Mean of newestIntensity. */
        double newestMeanIntensity = 0.0;
        /** Grams attributed: whole window on the first window,
         *  newest period's share afterwards. */
        double attributedGrams = 0.0;
    };

    explicit IncrementalSignalCore(const Config &config);

    /** Feed one demand sample (resource units). */
    void push(double demand_sample);

    /** True once the engine's window is full. */
    bool ready() const { return engine_->windowReady(); }

    std::uint64_t samplesSeen() const
    {
        return engine_->samplesSeen();
    }

    /** Periods closed since construction (never reset by an engine
     *  rebuild — the rebuilt engine restarts its own count, this one
     *  is the stream's). */
    std::uint64_t periodsClosed() const { return periodsClosed_; }

    /** Samples spanned by one full window (W * M). */
    std::size_t windowSamples() const
    {
        return config_.windowPeriods * config_.periodSamples;
    }

    /** The policy pool: poolGramsPerSecond over the window span. */
    double windowPoolGrams() const;

    /** True until the first window advance: the next publication
     *  covers the whole window, not just the newest period. */
    bool firstWindow() const
    {
        return periodsClosed_ == config_.windowPeriods;
    }

    /**
     * Full-window attribution at @p pool_grams. Requires ready().
     * Recovers from CacheIntegrityError by rebuilding the engine
     * from the retained samples and recomputing.
     */
    shapley::IncrementalTemporalEngine::WindowResult
    computeWindow(double pool_grams);

    /**
     * Publish the newest period: the full window on firstWindow(),
     * one window advance afterwards — the streaming publication
     * step. Requires ready(); recovers like computeWindow().
     */
    Publication publishNewest(double pool_grams);

    /** Convenience: publishNewest(windowPoolGrams()). */
    Publication publishNewest()
    {
        return publishNewest(windowPoolGrams());
    }

    /** Corrupt the engine's oldest resident cache entry (fault
     *  injection hook); false when the cache is empty. */
    bool corruptCacheEntryForTest()
    {
        return engine_->corruptCacheEntryForTest();
    }

    /** Engine rebuilds forced by cache-integrity faults. */
    std::uint64_t rebuilds() const { return rebuilds_; }

    const shapley::CacheStats &cacheStats() const
    {
        return engine_->cacheStats();
    }

    const Config &config() const { return config_; }

  private:
    void rebuildEngine();

    Config config_;
    std::unique_ptr<shapley::IncrementalTemporalEngine> engine_;
    /** Samples of the current partial period. */
    std::vector<double> partial_;
    /** Raw samples of the in-window closed periods — the rebuild
     *  source. front() is the window's oldest period. */
    std::deque<std::vector<double>> retained_;
    std::uint64_t periodsClosed_ = 0;
    std::uint64_t rebuilds_ = 0;
};

} // namespace fairco2::core

#endif // FAIRCO2_CORE_SIGNALCORE_HH
