/**
 * @file
 * Admission-overload degradation ladder for the live-signal server.
 *
 * The OverloadGovernor answers real load on the serving path: it
 * watches the admission controller's per-period pressure — the
 * fraction of offered batches that could not be admitted outright —
 * and walks a small hysteresis ladder:
 *
 *  - Normal: full service, exact incremental attribution.
 *  - ShedFree: Free-tier batches are rejected before they reach the
 *    token buckets, preserving paid-tier telemetry.
 *  - Proportional: the published signal degrades to the RUP
 *    baseline's constant intensity (pipeline::attributeProportional)
 *    while engines keep ingesting, so recovery is instant.
 *
 * Escalation needs `escalatePeriods` consecutive periods above the
 * high watermark; recovery needs `recoverPeriods` consecutive
 * periods below the low watermark — the gap between the watermarks
 * plus the dwell counts is what prevents level flapping. Pressure is
 * compared with integer cross-multiplication, so decisions are exact
 * and identical across platforms.
 */

#ifndef FAIRCO2_PIPELINE_OVERLOAD_HH
#define FAIRCO2_PIPELINE_OVERLOAD_HH

#include <cstdint>

namespace fairco2::pipeline
{

/** Service level the governor currently prescribes. */
enum class OverloadLevel : std::uint8_t
{
    Normal = 0,       //!< full service
    ShedFree = 1,     //!< reject Free-tier batches up front
    Proportional = 2, //!< publish RUP intensity, keep ingesting
};

/** Stable lower-case label, for counters and reports. */
const char *overloadLevelName(OverloadLevel level);

/** Hysteresis ladder over per-period admission pressure. */
class OverloadGovernor
{
  public:
    struct Config
    {
        /** Escalate when more than this percent of a period's offers
         *  are deferred or rejected. */
        std::uint32_t highWatermarkPercent = 50;
        /** Recover when at most this percent could not be admitted. */
        std::uint32_t lowWatermarkPercent = 10;
        /** Consecutive high-pressure periods before escalating. */
        std::uint32_t escalatePeriods = 2;
        /** Consecutive low-pressure periods before recovering. */
        std::uint32_t recoverPeriods = 4;
    };

    explicit OverloadGovernor(const Config &config);

    /**
     * Feed one period's admission outcome and return the level to
     * serve the *next* period at. @p offered of 0 counts as a
     * low-pressure period.
     */
    OverloadLevel observe(std::uint64_t offered,
                          std::uint64_t deferred,
                          std::uint64_t rejected);

    OverloadLevel level() const { return level_; }

    std::uint64_t escalations() const { return escalations_; }
    std::uint64_t recoveries() const { return recoveries_; }

  private:
    Config config_;
    OverloadLevel level_ = OverloadLevel::Normal;
    std::uint32_t highStreak_ = 0;
    std::uint32_t lowStreak_ = 0;
    std::uint64_t escalations_ = 0;
    std::uint64_t recoveries_ = 0;
};

} // namespace fairco2::pipeline

#endif // FAIRCO2_PIPELINE_OVERLOAD_HH
