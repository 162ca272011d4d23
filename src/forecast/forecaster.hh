/**
 * @file
 * Demand forecasting (Section 5.3). The paper uses Meta's Prophet;
 * offline, the equivalent additive model — linear trend plus daily
 * and weekly Fourier seasonality, fit by ridge-regularized least
 * squares — captures the same structure on data-center demand traces
 * and follows the same protocol (fit 21 days, forecast 9).
 */

#ifndef FAIRCO2_FORECAST_FORECASTER_HH
#define FAIRCO2_FORECAST_FORECASTER_HH

#include <cstddef>
#include <vector>

#include "trace/timeseries.hh"

namespace fairco2::forecast
{

/** Additive trend + Fourier-seasonality forecaster. */
class SeasonalForecaster
{
  public:
    struct Config
    {
        int dailyHarmonics = 6;   //!< Fourier order of the daily cycle
        int weeklyHarmonics = 4;  //!< Fourier order of the weekly cycle
        double ridgeLambda = 1e-3;//!< regularization strength
    };

    SeasonalForecaster();
    explicit SeasonalForecaster(const Config &config);

    /**
     * Fewest history samples fit() accepts: one per model feature
     * (intercept, trend, and a cosine/sine pair per harmonic).
     */
    std::size_t minHistorySamples() const;

    /**
     * Fit the model to a history starting at time zero. Throws
     * std::invalid_argument on fewer than minHistorySamples().
     *
     * When the ridge fit diverges — the history contains non-finite
     * samples, the Cholesky solve fails, or the solved weights are
     * not finite — the forecaster downgrades itself to a
     * seasonal-naive model (the last daily period of the history,
     * interpolation-repaired, tiled forward), logs the downgrade,
     * and bumps the `forecast.fallback` obs counter instead of
     * emitting poisoned predictions.
     */
    void fit(const trace::TimeSeries &history);

    /**
     * Fit the seasonal-naive fallback model directly — the last
     * daily period of @p history, interpolation-repaired, tiled
     * forward — without attempting the ridge fit at all. This is the
     * degraded forecast mode the pipeline takes when the history is
     * shorter than minHistorySamples(); the forecaster reports
     * degraded() afterwards. Requires a non-empty history (throws
     * std::invalid_argument otherwise).
     */
    void fitNaive(const trace::TimeSeries &history);

    /** True after a successful fit(). */
    bool fitted() const { return fitted_; }

    /** True when fit() fell back to the seasonal-naive model. */
    bool degraded() const { return degraded_; }

    /** Model prediction at an absolute time in seconds. */
    double predictAt(double seconds) const;

    /**
     * Forecast @p horizon_steps past the end of the fitted history,
     * at the history's step width. Predictions are clamped at zero
     * (demand cannot be negative).
     */
    trace::TimeSeries forecast(std::size_t horizon_steps) const;

    /**
     * The fitted history followed by a forecast horizon — the
     * "21 days of truth + 9 days of forecast" series Figures 5 and
     * 11 are built from.
     */
    trace::TimeSeries
    extendWithForecast(const trace::TimeSeries &history,
                       std::size_t horizon_steps);

  private:
    std::vector<double> featuresAt(double seconds) const;
    void applyNaive(const trace::TimeSeries &history);
    void fallbackTo(const trace::TimeSeries &history,
                    const char *reason);

    Config config_;
    bool fitted_;
    bool degraded_ = false;
    std::vector<double> fallbackPeriod_; //!< last daily period
    double fallbackStartSeconds_ = 0.0;
    std::vector<double> weights_;
    double yMean_;
    double yScale_;
    double historyEndSeconds_;
    double stepSeconds_;
    double timeScaleSeconds_; //!< trend normalization
};

} // namespace fairco2::forecast

#endif // FAIRCO2_FORECAST_FORECASTER_HH
