#include "shapley/incremental.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/errors.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "shapley/peak.hh"

namespace fairco2::shapley
{

namespace
{

/** Permutations per parallel chunk in the sampled sweep; fixed so
 *  the chunk grid and fold order never depend on `--threads N`. */
constexpr std::size_t kPermChunk = 16;

/** FNV-1a-style accumulator over 64-bit words (so verifying a
 *  cached payload stays much cheaper than re-solving it); counts the
 *  words it covers, which is what CacheStats reports as bytes. */
struct Fnv1a
{
    std::uint64_t state = 14695981039346656037ULL;
    std::uint64_t words = 0;

    void
    feed(std::uint64_t word)
    {
        state ^= word;
        state *= 1099511628211ULL;
        ++words;
    }

    void feed(double value) { feed(std::bit_cast<std::uint64_t>(value)); }
};

std::uint64_t
headChecksum(double peak, double usage)
{
    Fnv1a hash;
    hash.feed(peak);
    hash.feed(usage);
    return hash.state;
}

/** Feed one solve-tree node, structure words first, in preorder. */
template <class Node>
void
feedNode(Fnv1a &hash, const Node &node)
{
    hash.feed(static_cast<std::uint64_t>(node.begin));
    hash.feed(static_cast<std::uint64_t>(node.end));
    hash.feed(static_cast<std::uint64_t>(node.children.size()));
    hash.feed(node.usage);
    hash.feed(node.childDenom);
    for (const double v : node.childPhi)
        hash.feed(v);
    for (const double v : node.childUsages)
        hash.feed(v);
    for (const Node &child : node.children)
        feedNode(hash, child);
}

template <class Solve>
Fnv1a
treeChecksum(const Solve &solve)
{
    Fnv1a hash;
    hash.feed(static_cast<std::uint64_t>(solve.leafCount));
    hash.feed(solve.operations);
    feedNode(hash, solve.root);
    return hash;
}

std::uint64_t
phiChecksum(const std::vector<double> &phi)
{
    Fnv1a hash;
    for (const double v : phi)
        hash.feed(v);
    return hash.state;
}

/** The double payload words of @p node's subtree, in the preorder
 *  corruptCacheEntryForTest numbers them. */
template <class Node>
void
collectWords(Node &node, std::vector<double *> &out)
{
    out.push_back(&node.usage);
    out.push_back(&node.childDenom);
    for (double &v : node.childPhi)
        out.push_back(&v);
    for (double &v : node.childUsages)
        out.push_back(&v);
    for (Node &child : node.children)
        collectWords(child, out);
}

void
flipLowBit(double &word)
{
    word = std::bit_cast<double>(std::bit_cast<std::uint64_t>(word) ^
                                 1ULL);
}

std::string
hex16(std::uint64_t value)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buf);
}

/** A cached word did not match its payload: name the entry and both
 *  words, and throw. */
[[noreturn]] void
throwIntegrity(const std::string &entry, std::uint64_t stored,
               std::uint64_t computed)
{
    throw CacheIntegrityError("incremental attribution: " + entry +
                              " failed its checksum (stored " +
                              hex16(stored) + ", computed " +
                              hex16(computed) + ")");
}

} // namespace

IncrementalTemporalEngine::IncrementalTemporalEngine(
    const Config &config)
    : config_(config), rngBase_(config.seed)
{
    if (config_.windowPeriods == 0)
        throw std::invalid_argument(
            "incremental engine: windowPeriods must be >= 1");
    if (config_.periodSamples == 0)
        throw std::invalid_argument(
            "incremental engine: periodSamples must be >= 1");
    if (!(config_.stepSeconds > 0.0))
        throw std::invalid_argument(
            "incremental engine: stepSeconds must be positive");
    for (const std::size_t split : config_.innerSplits) {
        if (split == 0)
            throw std::invalid_argument(
                "incremental engine: inner split counts must be "
                ">= 1");
    }
    partialPeriod_.reserve(config_.periodSamples);
}

void
IncrementalTemporalEngine::pushSample(double demand)
{
    // Mirrors TemporalShapley::attribute's sample guard: a poisoned
    // sample would spread through every cached Shapley weight below
    // it, so refuse it at the door with a sample-level diagnostic.
    if (!std::isfinite(demand))
        throw FatalDataError(
            "incremental attribution: demand sample " +
            std::to_string(samplesSeen_) + " is not finite");
    partialPeriod_.push_back(demand);
    ++samplesSeen_;
    if (partialPeriod_.size() == config_.periodSamples)
        closePeriod();
}

void
IncrementalTemporalEngine::closePeriod()
{
    window_.emplace_back();
    window_.back().samples = std::move(partialPeriod_);
    partialPeriod_ = std::vector<double>();
    partialPeriod_.reserve(config_.periodSamples);
    ++periodsClosed_;
    if (window_.size() <= config_.windowPeriods)
        return;
    // Exact invalidation: the only entries that can involve the
    // period sliding out are its own solve and the phi of the window
    // that started at it. The new period has no solve yet and simply
    // misses on first use.
    if (window_.front().solve) {
        dropSolve(window_.front());
        ++stats_.invalidations;
        FAIRCO2_COUNT("shapley.cache.invalidate", 1);
    }
    if (phi_ && phiFirst_ == firstPeriod_) {
        dropPhi();
        ++stats_.invalidations;
        FAIRCO2_COUNT("shapley.cache.invalidate", 1);
    }
    window_.pop_front();
    ++firstPeriod_;
}

bool
IncrementalTemporalEngine::windowReady() const
{
    return window_.size() == config_.windowPeriods;
}

void
IncrementalTemporalEngine::dropSolve(Slot &slot)
{
    slot.solve.reset();
    --resident_;
    stats_.storedBytes -= slot.bytes;
    stats_.rawBytes = stats_.storedBytes;
}

void
IncrementalTemporalEngine::dropPhi()
{
    phi_.reset();
    --resident_;
    if (config_.cacheCapacity > 0)
        stats_.storedBytes -= 8 * config_.windowPeriods;
    stats_.rawBytes = stats_.storedBytes;
}

void
IncrementalTemporalEngine::trimToCapacity()
{
    if (config_.cacheCapacity == 0) {
        // Memoization off: slots only held this compute's solves.
        for (Slot &slot : window_)
            if (slot.solve)
                dropSolve(slot);
        if (phi_)
            dropPhi();
        return;
    }
    // The oldest solves go first: they slide out soonest.
    for (Slot &slot : window_) {
        if (resident_ <= config_.cacheCapacity)
            return;
        if (slot.solve) {
            dropSolve(slot);
            ++stats_.evictions;
            FAIRCO2_COUNT("shapley.cache.evict", 1);
        }
    }
}

IncrementalTemporalEngine::SolveNode
IncrementalTemporalEngine::solveRange(
    const std::vector<double> &samples, std::size_t begin,
    std::size_t end, std::size_t level, PeriodSolve &out) const
{
    SolveNode node;
    node.begin = begin;
    node.end = end;

    if (level == config_.innerSplits.size()) {
        // Leaf period: mirrors TimeSeries::integral — sum first,
        // scale by the step once.
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            sum += samples[i];
        node.usage = sum * config_.stepSeconds;
        ++out.leafCount;
        return node;
    }

    const std::size_t span = end - begin;
    const std::size_t chunks =
        std::min(config_.innerSplits[level], span);

    // Near-equal contiguous chunks covering [begin, end), with the
    // same bounds arithmetic as TemporalShapley::attributeRange.
    std::vector<std::size_t> bounds(chunks + 1);
    for (std::size_t c = 0; c <= chunks; ++c)
        bounds[c] = begin + span * c / chunks;

    std::vector<double> peaks(chunks);
    node.childUsages.assign(chunks, 0.0);
    for (std::size_t c = 0; c < chunks; ++c) {
        double best = 0.0;
        double sum = 0.0;
        for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
            best = std::max(best, samples[i]);
            sum += samples[i];
        }
        peaks[c] = best;
        node.childUsages[c] = sum * config_.stepSeconds;
    }

    out.operations += static_cast<std::uint64_t>(chunks) * chunks;

    node.childPhi = peakGameShapley(peaks);
    node.childDenom = 0.0;
    for (std::size_t c = 0; c < chunks; ++c)
        node.childDenom += node.childPhi[c] * node.childUsages[c];

    node.children.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c)
        node.children.push_back(solveRange(
            samples, bounds[c], bounds[c + 1], level + 1, out));
    return node;
}

IncrementalTemporalEngine::PeriodSolve
IncrementalTemporalEngine::solvePeriod(
    const std::vector<double> &samples) const
{
    PeriodSolve solve;
    double best = 0.0;
    double sum = 0.0;
    for (const double v : samples) {
        best = std::max(best, v);
        sum += v;
    }
    solve.peak = best;
    solve.usage = sum * config_.stepSeconds;
    solve.root = solveRange(samples, 0, samples.size(), 0, solve);
    return solve;
}

const IncrementalTemporalEngine::PeriodSolve &
IncrementalTemporalEngine::periodSolveFor(std::size_t c, bool whole)
{
    Slot &slot = window_[c];
    if (slot.solve) {
        // Verify what is read: the head always, the tree only when
        // the caller walks it.
        const PeriodSolve &solve = *slot.solve;
        const auto entry = [&](const char *part) {
            return std::string(part) +
                " of the sub-game cache entry for window period " +
                std::to_string(firstPeriod_ + c);
        };
        const std::uint64_t head =
            headChecksum(solve.peak, solve.usage);
        if (head != slot.headSum)
            throwIntegrity(entry("head"), slot.headSum, head);
        if (whole) {
            const std::uint64_t tree = treeChecksum(solve).state;
            if (tree != slot.treeSum)
                throwIntegrity(entry("tree"), slot.treeSum, tree);
        }
        ++stats_.hits;
        FAIRCO2_COUNT("shapley.cache.hit", 1);
        return solve;
    }
    ++stats_.misses;
    FAIRCO2_COUNT("shapley.cache.miss", 1);
    const PeriodSolve &solve =
        slot.solve.emplace(solvePeriod(slot.samples));
    ++resident_;
    if (config_.cacheCapacity > 0) {
        slot.headSum = headChecksum(solve.peak, solve.usage);
        const Fnv1a tree = treeChecksum(solve);
        slot.treeSum = tree.state;
        slot.bytes = 8 * (2 + tree.words);
        stats_.storedBytes += slot.bytes;
        stats_.rawBytes = stats_.storedBytes;
    }
    return solve;
}

std::vector<double>
IncrementalTemporalEngine::solveTopPhi(
    const std::vector<double> &peaks) const
{
    if (config_.sampledPermutations == 0)
        return peakGameShapley(peaks);

    const std::size_t n = peaks.size();
    const std::size_t perms = config_.sampledPermutations;
    // Marginal sweep over the reused permutation table. The running
    // maximum is the peak game's v(S) along the permutation prefix,
    // so each pass costs O(W) with no coalition re-enumeration.
    auto phi = parallel::parallelMapReduce(
        0, perms, kPermChunk, std::vector<double>(n, 0.0),
        [&](std::size_t lo, std::size_t hi) {
            std::vector<double> partial(n, 0.0);
            for (std::size_t p = lo; p < hi; ++p) {
                const auto &order = permutations_[p];
                double prev = 0.0;
                double best = 0.0;
                for (std::size_t k = 0; k < n; ++k) {
                    const std::size_t player = order[k];
                    best = std::max(best, peaks[player]);
                    partial[player] += best - prev;
                    prev = best;
                }
            }
            return partial;
        },
        [n](std::vector<double> &acc,
            const std::vector<double> &partial) {
            for (std::size_t i = 0; i < n; ++i)
                acc[i] += partial[i];
        });
    for (double &x : phi)
        x /= static_cast<double>(perms);
    return phi;
}

const std::vector<double> &
IncrementalTemporalEngine::windowPhiFor(
    const std::vector<double> &peaks)
{
    if (config_.sampledPermutations > 0 &&
        permutations_.size() < config_.sampledPermutations) {
        // Permutation p is forked from the seed counter-style, so
        // the table is pure in (seed, p) and shared by every window
        // — the "permutation prefix reuse" of sampled mode.
        permutations_.reserve(config_.sampledPermutations);
        for (std::size_t p = permutations_.size();
             p < config_.sampledPermutations; ++p)
            permutations_.push_back(
                rngBase_.fork(p).permutation(
                    config_.windowPeriods));
    }

    if (phi_ && phiFirst_ == firstPeriod_) {
        const std::uint64_t computed = phiChecksum(*phi_);
        if (computed != phiSum_)
            throwIntegrity(
                "window-phi cache entry for periods [" +
                    std::to_string(firstPeriod_) + ".." +
                    std::to_string(firstPeriod_ +
                                   config_.windowPeriods - 1) +
                    "]",
                phiSum_, computed);
        ++stats_.hits;
        FAIRCO2_COUNT("shapley.cache.hit", 1);
        return *phi_;
    }
    // closePeriod dropped any phi of an earlier window, so nothing
    // resident is replaced here.
    ++stats_.misses;
    FAIRCO2_COUNT("shapley.cache.miss", 1);
    phi_ = solveTopPhi(peaks);
    phiFirst_ = firstPeriod_;
    ++resident_;
    if (config_.cacheCapacity > 0) {
        phiSum_ = phiChecksum(*phi_);
        stats_.storedBytes += 8 * config_.windowPeriods;
        stats_.rawBytes = stats_.storedBytes;
    }
    return *phi_;
}

void
IncrementalTemporalEngine::applyCarbon(
    const SolveNode &node, double carbon, std::vector<double> &values,
    std::size_t offset, double &attributed,
    double &unattributed) const
{
    if (node.children.empty()) {
        // Leaf period: constant intensity carbon / resource-time,
        // mirroring attributeRange's leaf branch.
        if (node.usage <= 0.0) {
            unattributed += carbon;
            return;
        }
        const double intensity = carbon / node.usage;
        for (std::size_t i = node.begin; i < node.end; ++i)
            values[offset + i] = intensity;
        attributed += carbon;
        return;
    }

    // Mirrors periodIntensities: y_c = phi_c * C / sum_k phi_k q_k,
    // all zero when the usage-weighted Shapley mass vanishes.
    const std::size_t chunks = node.children.size();
    std::vector<double> intensities(chunks, 0.0);
    if (node.childDenom > 0.0) {
        for (std::size_t c = 0; c < chunks; ++c)
            intensities[c] =
                node.childPhi[c] * carbon / node.childDenom;
    }

    double assigned = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) {
        const double chunk_carbon =
            intensities[c] * node.childUsages[c];
        assigned += chunk_carbon;
        applyCarbon(node.children[c], chunk_carbon, values, offset,
                    attributed, unattributed);
    }
    unattributed += carbon - assigned;
}

IncrementalTemporalEngine::WindowResult
IncrementalTemporalEngine::computeWindow(double pool_grams)
{
    if (!windowReady())
        throw std::logic_error(
            "incremental attribution: window queried before "
            "windowPeriods periods closed");
    if (!std::isfinite(pool_grams))
        throw FatalDataError(
            "incremental attribution: total grams is not finite");
    FAIRCO2_SPAN("shapley.incremental.window");
    FAIRCO2_COUNT("shapley.incremental.windows", 1);

    const std::size_t W = config_.windowPeriods;
    const std::size_t M = config_.periodSamples;

    // Gather the W carbon-independent sub-game solves (cache hits
    // for every period the window shares with its predecessor). The
    // slots stay put until trimToCapacity at the end, so the
    // references hold across the whole compute.
    std::vector<const PeriodSolve *> solves(W);
    std::vector<double> peaks(W), usages(W);
    for (std::size_t c = 0; c < W; ++c) {
        solves[c] = &periodSolveFor(c, true);
        peaks[c] = solves[c]->peak;
        usages[c] = solves[c]->usage;
    }

    const auto &phi = windowPhiFor(peaks);
    double denom = 0.0;
    for (std::size_t c = 0; c < W; ++c)
        denom += phi[c] * usages[c];

    std::vector<double> intensities(W, 0.0);
    if (denom > 0.0) {
        for (std::size_t c = 0; c < W; ++c)
            intensities[c] = phi[c] * pool_grams / denom;
    }

    WindowResult result;
    result.firstPeriod = firstPeriod_;
    result.operations =
        static_cast<std::uint64_t>(W) * W;
    std::vector<double> values(W * M, 0.0);
    double assigned = 0.0;
    for (std::size_t c = 0; c < W; ++c) {
        const double chunk_carbon = intensities[c] * usages[c];
        assigned += chunk_carbon;
        applyCarbon(solves[c]->root, chunk_carbon, values, c * M,
                    result.attributedGrams,
                    result.unattributedGrams);
        result.leafPeriods += solves[c]->leafCount;
        result.operations += solves[c]->operations;
    }
    result.unattributedGrams += pool_grams - assigned;
    result.intensity =
        trace::TimeSeries(std::move(values), config_.stepSeconds);
    trimToCapacity();
    return result;
}

IncrementalTemporalEngine::PeriodResult
IncrementalTemporalEngine::computeNewestPeriod(double pool_grams)
{
    if (!windowReady())
        throw std::logic_error(
            "incremental attribution: window queried before "
            "windowPeriods periods closed");
    if (!std::isfinite(pool_grams))
        throw FatalDataError(
            "incremental attribution: total grams is not finite");
    FAIRCO2_SPAN("shapley.incremental.advance");
    FAIRCO2_COUNT("shapley.incremental.advances", 1);

    const std::size_t W = config_.windowPeriods;
    const std::size_t M = config_.periodSamples;

    // The top-level game still needs every period's peak and usage,
    // but with a warm cache only the newest period solves fresh, and
    // only the heads of the older slots are read (and verified).
    std::vector<double> peaks(W);
    for (std::size_t c = 0; c < W; ++c)
        peaks[c] = periodSolveFor(c, c + 1 == W).peak;
    const PeriodSolve &newest = *window_.back().solve;

    const auto &phi = windowPhiFor(peaks);
    double denom = 0.0;
    for (std::size_t c = 0; c < W; ++c)
        denom += phi[c] * window_[c].solve->usage;

    double intensity = 0.0;
    if (denom > 0.0)
        intensity = phi[W - 1] * pool_grams / denom;

    PeriodResult result;
    result.period = firstPeriod_ + W - 1;
    result.periodGrams = intensity * newest.usage;
    result.leafPeriods = newest.leafCount;
    result.operations =
        static_cast<std::uint64_t>(W) * W + newest.operations;
    result.intensity.assign(M, 0.0);
    applyCarbon(newest.root, result.periodGrams, result.intensity, 0,
                result.attributedGrams, result.unattributedGrams);
    trimToCapacity();
    return result;
}

bool
IncrementalTemporalEngine::corruptCacheEntryForTest(
    std::size_t word_offset)
{
    // Flip one payload bit without refreshing the checksums; the
    // next verified read of that word fails.
    for (Slot &slot : window_) {
        if (!slot.solve)
            continue;
        std::vector<double *> words{&slot.solve->peak,
                                    &slot.solve->usage};
        collectWords(slot.solve->root, words);
        flipLowBit(*words[word_offset % words.size()]);
        return true;
    }
    if (!phi_)
        return false;
    flipLowBit((*phi_)[word_offset % phi_->size()]);
    return true;
}

} // namespace fairco2::shapley
