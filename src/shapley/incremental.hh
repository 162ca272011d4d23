/**
 * @file
 * Incremental sliding-window Temporal Shapley with sub-game
 * memoization.
 *
 * The live deployment shape of the paper's signal recomputes a
 * hierarchical Temporal Shapley attribution every time the demand
 * window slides forward by one period — yet consecutive windows share
 * W-1 of their W period sub-games. IncrementalTemporalEngine memoizes
 * the carbon-independent part of each sub-game (peaks, usages,
 * per-node Shapley weights of the inner hierarchy) in a ring of W
 * typed slots that runs parallel to the window's period samples, plus
 * one cached top-level window phi tagged with its first period. A
 * slot fills on first use and slides out with its period, so
 * advancing the window by one period costs one fresh period solve
 * plus a W-player top-level peak game instead of W full solves.
 *
 * Correctness contract (the strongest oracle in the repo):
 *
 *  - With memoization on (any capacity) or off (capacity 0), the
 *    engine's output is **byte-identical**: cached values are pure
 *    functions of the immutable period samples, and the carbon
 *    application pass mirrors core::TemporalShapley::attributeRange
 *    expression for expression.
 *  - A single full window equals TemporalShapley::attribute over the
 *    same samples with split counts {windowPeriods, innerSplits...},
 *    bit for bit.
 *  - In sampled mode the permutation table is derived once from
 *    Rng::fork streams and reused across windows, and the marginal
 *    sweep folds fixed-size chunks in ascending order, so results are
 *    bit-identical at any `--threads N`.
 *
 * Integrity: every slot carries two FNV-1a words, one over its
 * (peak, usage) head and one over its solve tree; the window phi
 * carries one over phi. A hit verifies exactly the part it reads
 * before using it — an advance reads only the heads of the W-1
 * older slots, a full window reads whole trees — and a mismatch
 * throws CacheIntegrityError naming the offending window period and
 * the stored-vs-computed words, which the attribution pipeline
 * answers with the exact full recompute. Cache behavior is
 * observable through the
 * `shapley.cache.{hit,miss,evict,invalidate}` counters and the
 * per-engine CacheStats.
 */

#ifndef FAIRCO2_SHAPLEY_INCREMENTAL_HH
#define FAIRCO2_SHAPLEY_INCREMENTAL_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/timeseries.hh"

namespace fairco2::shapley
{

/**
 * A memoized sub-game entry failed its checksum — the cache no
 * longer reflects the period samples it was solved from. The message
 * names the offending window period (or period range) and the
 * stored-vs-computed checksum pair. Callers should drop the engine
 * and recompute from scratch, as runAttributionPipeline does.
 */
class CacheIntegrityError : public std::runtime_error
{
  public:
    explicit CacheIntegrityError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Counters describing one engine's cache behavior. The first four
 *  are monotonic; the byte fields are snapshots of the resident
 *  payload (the words the checksums cover), always equal. */
struct CacheStats
{
    std::uint64_t hits = 0;          //!< entry found and verified
    std::uint64_t misses = 0;        //!< entry absent, solved fresh
    std::uint64_t evictions = 0;     //!< removed by capacity policy
    std::uint64_t invalidations = 0; //!< removed by window advance
    std::uint64_t storedBytes = 0;   //!< resident payload bytes
    std::uint64_t rawBytes = 0;      //!< same as storedBytes
};

/**
 * Sliding-window Temporal Shapley evaluator with memoized sub-games.
 *
 * Telemetry samples stream in through pushSample(); every
 * Config::periodSamples samples close one *period*, and the engine's
 * window is the last Config::windowPeriods closed periods. Once
 * windowReady(), computeWindow() attributes a carbon pool over the
 * whole window and computeNewestPeriod() attributes just the newest
 * period's share — the O(1)-ish streaming publication step.
 */
class IncrementalTemporalEngine
{
  public:
    struct Config
    {
        /** Players W in the top-level peak game (>= 1). */
        std::size_t windowPeriods = 24;
        /** Samples M per period (>= 1). */
        std::size_t periodSamples = 12;
        /** Telemetry sample width, seconds. */
        double stepSeconds = 300.0;
        /** Hierarchical split counts *below* each period; a window
         *  compute equals TemporalShapley::attribute with splits
         *  {windowPeriods, innerSplits...}. Empty = periods are
         *  leaves. */
        std::vector<std::size_t> innerSplits{};
        /** Resident memo entries (period solves plus the window
         *  phi) kept between computes; 0 disables memoization (the
         *  from-scratch reference engine), windowPeriods + 1 or
         *  more never evicts, anything smaller evicts the oldest
         *  solved periods first. */
        std::size_t cacheCapacity = 64;
        /** Permutations for the sampled top-level game; 0 uses the
         *  exact O(W log W) closed form. */
        std::size_t sampledPermutations = 0;
        /** Seed for the sampled-mode permutation streams. */
        std::uint64_t seed = 42;
    };

    /** Full-window attribution result (windowPeriods*periodSamples
     *  samples). */
    struct WindowResult
    {
        /** Intensity per window sample, g per resource-second. */
        trace::TimeSeries intensity;
        double attributedGrams = 0.0;
        double unattributedGrams = 0.0;
        std::size_t leafPeriods = 0;
        std::uint64_t operations = 0;
        /** Absolute index of the window's first period. */
        std::uint64_t firstPeriod = 0;
    };

    /** Newest-period attribution result (periodSamples samples). */
    struct PeriodResult
    {
        /** Intensity per sample of the newest period. */
        std::vector<double> intensity;
        /** Carbon the top-level game assigned to this period. */
        double periodGrams = 0.0;
        double attributedGrams = 0.0;
        double unattributedGrams = 0.0;
        /** Leaf ranges visited while solving this period. */
        std::size_t leafPeriods = 0;
        /** Shapley sub-game evaluations this advance cost. */
        std::uint64_t operations = 0;
        /** Absolute index of the period. */
        std::uint64_t period = 0;
    };

    explicit IncrementalTemporalEngine(const Config &config);

    /** Feed one demand sample; throws FatalDataError when it is not
     *  finite or negative-infinite garbage. */
    void pushSample(double demand);

    /** True once windowPeriods periods have closed. */
    bool windowReady() const;

    /** Samples pushed so far. */
    std::uint64_t samplesSeen() const { return samplesSeen_; }

    /** Periods closed so far (absolute period index of the next
     *  period to close). */
    std::uint64_t periodsClosed() const { return periodsClosed_; }

    /** Absolute index of the window's first (oldest) period. */
    std::uint64_t firstWindowPeriod() const { return firstPeriod_; }

    /**
     * Attribute @p pool_grams over the whole current window.
     * Requires windowReady(); throws FatalDataError on a non-finite
     * pool and CacheIntegrityError on a corrupted cache entry.
     */
    WindowResult computeWindow(double pool_grams);

    /**
     * Attribute the newest period's share of @p pool_grams — the
     * streaming publication step, which touches one fresh sub-game
     * plus the top-level peak game when the cache is warm.
     */
    PeriodResult computeNewestPeriod(double pool_grams);

    /** This engine's cache counters (also mirrored into the
     *  `shapley.cache.*` obs counters). */
    const CacheStats &cacheStats() const { return stats_; }

    /** Resident memo entries: solved slots plus the window phi. */
    std::size_t cacheSize() const { return resident_; }

    /**
     * Flip the lowest bit of one payload word of the oldest resident
     * entry (the oldest solved slot, else the window phi) without
     * refreshing its checksum — the hook the fault plan's
     * `cache-corrupt` key and the integrity tests use. A slot's words
     * are numbered peak, usage, then each tree node's usage,
     * childDenom, childPhi and childUsages in preorder; @p word_offset
     * wraps modulo the entry's word count, so offsets 0 and 1 hit the
     * head an advance verifies. Returns false (and does nothing) when
     * nothing is resident.
     */
    bool corruptCacheEntryForTest(std::size_t word_offset = 0);

    const Config &config() const { return config_; }

  private:
    /** Carbon-independent solve of one node of a period's inner
     *  hierarchy; mirrors TemporalShapley::attributeRange. */
    struct SolveNode
    {
        std::size_t begin = 0; //!< sample offset within the period
        std::size_t end = 0;
        double usage = 0.0;    //!< leaf only: integral over [begin,end)
        std::vector<double> childUsages;
        std::vector<double> childPhi;
        double childDenom = 0.0;
        std::vector<SolveNode> children; //!< empty == leaf
    };

    /** Everything carbon-independent about one period. */
    struct PeriodSolve
    {
        double peak = 0.0;  //!< player value in the top-level game
        double usage = 0.0; //!< q_i in the Eq. 5 normalization
        SolveNode root;
        std::size_t leafCount = 0;
        std::uint64_t operations = 0;
    };

    /** One in-window period: its raw samples (kept so an evicted
     *  solve can always be re-solved) and its memoized solve. */
    struct Slot
    {
        std::vector<double> samples;
        std::optional<PeriodSolve> solve; //!< empty until first use
        std::uint64_t headSum = 0; //!< FNV-1a over (peak, usage)
        std::uint64_t treeSum = 0; //!< FNV-1a over the solve tree
        std::uint64_t bytes = 0;   //!< payload words covered * 8
    };

    void closePeriod();
    PeriodSolve solvePeriod(const std::vector<double> &samples) const;
    SolveNode solveRange(const std::vector<double> &samples,
                         std::size_t begin, std::size_t end,
                         std::size_t level, PeriodSolve &out) const;
    /** The solve of window position @p c: a verified hit (the head
     *  only unless @p whole) or a fresh solve filling the slot. */
    const PeriodSolve &periodSolveFor(std::size_t c, bool whole);
    const std::vector<double> &
    windowPhiFor(const std::vector<double> &peaks);
    std::vector<double>
    solveTopPhi(const std::vector<double> &peaks) const;
    void applyCarbon(const SolveNode &node, double carbon,
                     std::vector<double> &values, std::size_t offset,
                     double &attributed, double &unattributed) const;
    /** Drop slot @p slot's solve (or the window phi), keeping the
     *  resident counts in step. */
    void dropSolve(Slot &slot);
    void dropPhi();
    /** End of a compute: evict the oldest solves down to
     *  cacheCapacity, or drop everything when memoization is off. */
    void trimToCapacity();

    Config config_;
    Rng rngBase_;
    std::uint64_t samplesSeen_ = 0;
    std::uint64_t periodsClosed_ = 0;
    std::uint64_t firstPeriod_ = 0;
    std::vector<double> partialPeriod_;
    /** The memo ring, one slot per in-window period; front() is
     *  firstPeriod_ and slides out with it in closePeriod. */
    std::deque<Slot> window_;
    /** Sampled mode: permutation p of [0, W), forked once from the
     *  seed and reused across every window. */
    std::vector<std::vector<std::size_t>> permutations_;
    /** Cached top-level phi of the window starting at phiFirst_. */
    std::optional<std::vector<double>> phi_;
    std::uint64_t phiFirst_ = 0;
    std::uint64_t phiSum_ = 0;
    /** Resident entries: solved slots plus the window phi. */
    std::size_t resident_ = 0;
    CacheStats stats_;
};

} // namespace fairco2::shapley

#endif // FAIRCO2_SHAPLEY_INCREMENTAL_HH
