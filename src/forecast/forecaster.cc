#include "forecast/forecaster.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "common/linalg.hh"
#include "common/obs.hh"
#include "resilience/ingest.hh"

namespace fairco2::forecast
{

namespace
{

constexpr double kSecondsPerDay = 86400.0;
constexpr double kSecondsPerWeek = 7.0 * kSecondsPerDay;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

bool
allFinite(const std::vector<double> &values)
{
    for (double v : values) {
        if (!std::isfinite(v))
            return false;
    }
    return true;
}

} // namespace

SeasonalForecaster::SeasonalForecaster()
    : SeasonalForecaster(Config{})
{
}

SeasonalForecaster::SeasonalForecaster(const Config &config)
    : config_(config), fitted_(false), yMean_(0.0), yScale_(1.0),
      historyEndSeconds_(0.0), stepSeconds_(1.0),
      timeScaleSeconds_(kSecondsPerWeek)
{
    assert(config.dailyHarmonics >= 0);
    assert(config.weeklyHarmonics >= 0);
    assert(config.ridgeLambda >= 0.0);
}

std::vector<double>
SeasonalForecaster::featuresAt(double seconds) const
{
    std::vector<double> f;
    f.reserve(2 + 2 * (config_.dailyHarmonics +
                       config_.weeklyHarmonics));
    f.push_back(1.0);
    f.push_back(seconds / timeScaleSeconds_);
    for (int k = 1; k <= config_.dailyHarmonics; ++k) {
        const double phase = kTwoPi * k * seconds / kSecondsPerDay;
        f.push_back(std::cos(phase));
        f.push_back(std::sin(phase));
    }
    for (int k = 1; k <= config_.weeklyHarmonics; ++k) {
        const double phase = kTwoPi * k * seconds / kSecondsPerWeek;
        f.push_back(std::cos(phase));
        f.push_back(std::sin(phase));
    }
    return f;
}

std::size_t
SeasonalForecaster::minHistorySamples() const
{
    return 2 + 2 * static_cast<std::size_t>(config_.dailyHarmonics +
                                            config_.weeklyHarmonics);
}

void
SeasonalForecaster::fit(const trace::TimeSeries &history)
{
    const std::size_t n = history.size();
    const std::size_t p = minHistorySamples();
    if (n < p)
        throw std::invalid_argument(
            "history too short for the seasonal model");

    FAIRCO2_SPAN("forecast.fit");
    FAIRCO2_COUNT("forecast.fits", 1);
    FAIRCO2_OBSERVE("forecast.fit_samples", n);
    FAIRCO2_TIME_NS("forecast.fit_ns");

    stepSeconds_ = history.stepSeconds();
    historyEndSeconds_ = history.durationSeconds();
    degraded_ = false;

    if (!allFinite(history.values())) {
        fallbackTo(history, "history contains non-finite samples");
        return;
    }

    // Standardize the target so the ridge penalty is scale-free.
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        mean += history[i];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = history[i] - mean;
        var += d * d;
    }
    yMean_ = mean;
    yScale_ = std::sqrt(var / static_cast<double>(n));
    if (yScale_ <= 0.0)
        yScale_ = 1.0;

    Matrix design(n, p);
    std::vector<double> target(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t =
            (static_cast<double>(i) + 0.5) * stepSeconds_;
        const auto f = featuresAt(t);
        for (std::size_t j = 0; j < p; ++j)
            design(i, j) = f[j];
        target[i] = (history[i] - yMean_) / yScale_;
    }

    {
        // The ridge solve (normal equations + Cholesky) dominates
        // fit cost once the design matrix is built.
        FAIRCO2_SPAN("forecast.solve");
        FAIRCO2_TIME_NS("forecast.solve_ns");
        try {
            weights_ =
                ridgeRegression(design, target, config_.ridgeLambda);
        } catch (const std::runtime_error &) {
            fallbackTo(history, "ridge solve failed");
            return;
        }
    }
    // A NaN on the Cholesky diagonal passes its `diag <= 0` check,
    // so divergence can also surface as non-finite weights.
    if (!allFinite(weights_)) {
        fallbackTo(history, "ridge fit diverged");
        return;
    }
    fitted_ = true;
}

void
SeasonalForecaster::fitNaive(const trace::TimeSeries &history)
{
    if (history.empty())
        throw std::invalid_argument(
            "fitNaive requires a non-empty history");
    stepSeconds_ = history.stepSeconds();
    historyEndSeconds_ = history.durationSeconds();
    applyNaive(history);
    FAIRCO2_COUNT("forecast.naive_fits", 1);
}

void
SeasonalForecaster::applyNaive(const trace::TimeSeries &history)
{
    const std::size_t n = history.size();
    const auto day_steps = static_cast<std::size_t>(
        std::max(1.0, std::round(kSecondsPerDay / stepSeconds_)));
    const std::size_t period = std::min(n, day_steps);

    const auto &values = history.values();
    fallbackPeriod_.assign(values.end() -
                               static_cast<std::ptrdiff_t>(period),
                           values.end());
    fallbackStartSeconds_ =
        static_cast<double>(n - period) * stepSeconds_;
    // Throws (and aborts the fit) only when *no* finite sample
    // exists to rebuild from.
    resilience::repairNonFinite(fallbackPeriod_,
                                resilience::BadRowPolicy::Interpolate,
                                "forecast fallback history");

    weights_.clear();
    degraded_ = true;
    fitted_ = true;
}

void
SeasonalForecaster::fallbackTo(const trace::TimeSeries &history,
                               const char *reason)
{
    applyNaive(history);
    FAIRCO2_COUNT("forecast.fallback", 1);
    std::fprintf(stderr,
                 "warning: forecast: %s; falling back to "
                 "seasonal-naive over the last %zu samples\n",
                 reason, fallbackPeriod_.size());
}

double
SeasonalForecaster::predictAt(double seconds) const
{
    assert(fitted_);
    if (degraded_) {
        // Seasonal-naive: tile the stored period in both directions,
        // phase-aligned with where it sat in the history.
        const auto period =
            static_cast<std::int64_t>(fallbackPeriod_.size());
        const auto k = static_cast<std::int64_t>(std::floor(
            (seconds - fallbackStartSeconds_) / stepSeconds_));
        const std::int64_t idx = ((k % period) + period) % period;
        return fallbackPeriod_[static_cast<std::size_t>(idx)];
    }
    const auto f = featuresAt(seconds);
    double z = 0.0;
    for (std::size_t j = 0; j < f.size(); ++j)
        z += weights_[j] * f[j];
    return yMean_ + yScale_ * z;
}

trace::TimeSeries
SeasonalForecaster::forecast(std::size_t horizon_steps) const
{
    assert(fitted_);
    FAIRCO2_SPAN("forecast.predict");
    FAIRCO2_COUNT("forecast.predicted_steps", horizon_steps);
    std::vector<double> values(horizon_steps);
    for (std::size_t i = 0; i < horizon_steps; ++i) {
        const double t = historyEndSeconds_ +
            (static_cast<double>(i) + 0.5) * stepSeconds_;
        values[i] = std::max(0.0, predictAt(t));
    }
    return trace::TimeSeries(std::move(values), stepSeconds_);
}

trace::TimeSeries
SeasonalForecaster::extendWithForecast(
    const trace::TimeSeries &history, std::size_t horizon_steps)
{
    fit(history);
    const auto horizon = forecast(horizon_steps);
    std::vector<double> combined(history.values());
    combined.insert(combined.end(), horizon.values().begin(),
                    horizon.values().end());
    return trace::TimeSeries(std::move(combined),
                             history.stepSeconds());
}

} // namespace fairco2::forecast
