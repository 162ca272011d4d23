/**
 * @file
 * Guardrailed learned-surrogate front end for the incremental
 * sliding-window Temporal Shapley engine.
 *
 * SurrogateTemporalEngine wraps an IncrementalTemporalEngine and, on
 * every window compute, decides between two paths:
 *
 *  - **surrogate**: predict each window period's pool share from the
 *    streaming PeriodSketches (common/surrogate.hh), rescale the
 *    predictions to sum exactly to one (so efficiency/conservation
 *    holds by construction — the predicted shares are normalized to
 *    the exact total), and publish a flat within-period intensity
 *    without touching a single sub-game solve;
 *  - **exact**: delegate to the wrapped engine — the O(n log n)
 *    peak-game closed form plus memoized sub-game solves.
 *
 * Guardrails are the point: a prediction ships only when *all* of
 * these hold, otherwise the call falls back to the exact engine and
 * the rejection is counted by reason:
 *
 *  - structure: the engine runs the exact top-level game with
 *    period-leaf windows (no innerSplits, no sampled permutations) —
 *    the only shape whose published output a flat per-period share
 *    can reproduce;
 *  - in-distribution: every feature row lies inside the model's
 *    training bounding box (plus margin);
 *  - residual bound: the predicted shares are checked against the
 *    closed-form shares derived from the same sketches (the peak
 *    game's threshold decomposition makes that oracle streamable at
 *    O(W log W), with no sample re-walks); the worst relative share
 *    deviation must stay within the configured tolerance. Because
 *    every accepted prediction passed this bound, the published
 *    signal's per-advance error is <= tolerance *by construction* —
 *    the property the perf bench and the differential suite assert.
 *
 * Every decision is observable: `surrogate.accept` /
 * `surrogate.reject` (and per-reason `surrogate.reject.*`) counters,
 * plus a `surrogate.mape_pct` histogram of the newest-share relative
 * error of accepted predictions. With a null model the wrapper is
 * pure delegation — bitwise identical to the bare engine, which is
 * what keeps every existing surface unchanged when `--surrogate` is
 * off.
 *
 * Training lives here too (the targets are exact peak-game solves):
 * trainSurrogateModel() fits the ridge model on deterministic
 * counter-RNG synthetic windows, trainSurrogateModelOnSeries() on a
 * caller-provided demand trace, both with a held-out calibration
 * split.
 */

#ifndef FAIRCO2_SHAPLEY_SURROGATE_HH
#define FAIRCO2_SHAPLEY_SURROGATE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/surrogate.hh"
#include "shapley/incremental.hh"
#include "trace/timeseries.hh"

namespace fairco2::shapley
{

/** Why one compute fell back to the exact engine. */
enum class SurrogateReject : std::uint8_t
{
    None = 0,            //!< accepted
    Structure,           //!< innerSplits / sampled top game
    OutOfDistribution,   //!< a feature left the training box
    Residual,            //!< closed-form residual exceeded the tol
    Degenerate,          //!< zero peaks/usage/shares in the window
};

/** Guardrailed surrogate wrapper (see file comment). */
class SurrogateTemporalEngine
{
  public:
    struct Config
    {
        /** The wrapped exact engine's configuration. */
        IncrementalTemporalEngine::Config engine;
        /** Trained model; null disables the surrogate entirely
         *  (pure delegation, bitwise identical to the bare
         *  engine). */
        std::shared_ptr<const surrogate::SurrogateModel> model;
        /** Relative share tolerance of the residual guardrail;
         *  must be positive and finite when a model is set. */
        double tolerance = 0.01;
    };

    /** Monotonic decision counters (also mirrored into the
     *  `surrogate.*` obs counters). */
    struct Counters
    {
        std::uint64_t accepts = 0;
        std::uint64_t rejects = 0;
        std::uint64_t rejectStructure = 0;
        std::uint64_t rejectOutOfDistribution = 0;
        std::uint64_t rejectResidual = 0;
        std::uint64_t rejectDegenerate = 0;
    };

    explicit SurrogateTemporalEngine(const Config &config);

    /** Feed one demand sample (delegates, then updates the
     *  streaming sketches). */
    void pushSample(double demand);

    bool windowReady() const { return engine_->windowReady(); }
    std::uint64_t samplesSeen() const
    {
        return engine_->samplesSeen();
    }
    std::uint64_t periodsClosed() const
    {
        return engine_->periodsClosed();
    }
    std::uint64_t firstWindowPeriod() const
    {
        return engine_->firstWindowPeriod();
    }

    /** Full-window attribution: surrogate when every guardrail
     *  holds, exact otherwise. */
    IncrementalTemporalEngine::WindowResult
    computeWindow(double pool_grams);

    /** Newest-period attribution — the hot streaming step the
     *  surrogate exists to accelerate. */
    IncrementalTemporalEngine::PeriodResult
    computeNewestPeriod(double pool_grams);

    const Counters &counters() const { return counters_; }

    /** Decision of the most recent compute (false before any). */
    bool lastAccepted() const { return lastAccepted_; }
    /** Rejection reason of the most recent compute. */
    SurrogateReject lastReject() const { return lastReject_; }
    /** Newest-share relative error |pred - exact| / exact of the
     *  most recent accepted or residual-rejected compute. */
    double lastRelativeError() const { return lastError_; }

    /** The wrapped exact engine (tests and fault hooks). */
    IncrementalTemporalEngine &inner() { return *engine_; }
    const IncrementalTemporalEngine &inner() const
    {
        return *engine_;
    }

    const CacheStats &cacheStats() const
    {
        return engine_->cacheStats();
    }
    std::size_t cacheSize() const { return engine_->cacheSize(); }
    bool
    corruptCacheEntryForTest(std::size_t word_offset = 0)
    {
        return engine_->corruptCacheEntryForTest(word_offset);
    }

    const Config &config() const { return config_; }

  private:
    /** One guardrail evaluation over the current window. */
    struct Decision
    {
        SurrogateReject reject = SurrogateReject::Degenerate;
        std::vector<double> shares; //!< rescaled predictions (W)
        std::vector<double> usages; //!< sketch usages (W)
        double newestError = 0.0;   //!< newest-share relative error
    };

    Decision evaluate() const;
    void recordAccept(const Decision &decision);
    void recordReject(SurrogateReject reason);

    Config config_;
    std::unique_ptr<IncrementalTemporalEngine> engine_;
    /** Sketch of the period currently filling. */
    surrogate::PeriodSketch partial_;
    /** Sketches of the in-window closed periods, parallel to the
     *  wrapped engine's window (front() is the oldest). */
    std::deque<surrogate::PeriodSketch> window_;
    Counters counters_;
    bool lastAccepted_ = false;
    SurrogateReject lastReject_ = SurrogateReject::None;
    double lastError_ = 0.0;
};

/** Training configuration for the ridge surrogate. */
struct SurrogateTrainConfig
{
    /** Synthetic windows to generate (trainSurrogateModel only). */
    std::size_t windows = 512;
    std::size_t windowPeriods = 24; //!< players W per window
    std::size_t periodSamples = 12; //!< samples M per period
    double stepSeconds = 300.0;
    double lambda = 1e-8; //!< ridge penalty
    std::uint64_t seed = 42;
    /** Fraction of windows held out for calibration. */
    double heldOutFraction = 0.25;
};

/**
 * Fit the ridge surrogate on deterministic synthetic demand windows
 * (counter-RNG: window w draws every sample from Rng(seed).fork(w),
 * so the corpus is pure in the seed): diurnal base load plus noise
 * and occasional spikes, targets from exact peak-game solves. The
 * held-out split calibrates the model's error quantiles. Throws
 * FatalDataError when the corpus degenerates (e.g. zero windows).
 */
surrogate::SurrogateModel
trainSurrogateModel(const SurrogateTrainConfig &config);

/**
 * Fit the same model on sliding windows of @p demand (one window
 * per period advance) — the in-distribution path the perf bench
 * uses. Ignores config.windows; every complete window of the series
 * becomes one training example.
 */
surrogate::SurrogateModel
trainSurrogateModelOnSeries(const trace::TimeSeries &demand,
                            const SurrogateTrainConfig &config);

} // namespace fairco2::shapley

#endif // FAIRCO2_SHAPLEY_SURROGATE_HH
