/**
 * @file
 * Machine-readable run-health reporting.
 *
 * A degraded attribution number is only defensible if the degradation
 * is *declared*: RunHealth records, per pipeline stage, how it ended
 * and why (the note names the fallback taken or the error that failed
 * it). The report is serialized as JSON (`--health-out`) and is a
 * pure function of the inputs and configuration — no timestamps — so
 * two runs at different `--threads N` emit identical reports.
 */

#ifndef FAIRCO2_PIPELINE_HEALTH_HH
#define FAIRCO2_PIPELINE_HEALTH_HH

#include <string>
#include <vector>

namespace fairco2::pipeline
{

/** How a stage ended. */
enum class StageStatus
{
    Skipped,  //!< never ran (disabled, or an earlier stage failed)
    Ok,       //!< produced full-fidelity output
    Degraded, //!< produced output through a declared fallback
    Failed,   //!< threw; the note carries the error
};

/** Lower-case status name used in the JSON report. */
const char *stageStatusName(StageStatus status);

/** Outcome of one pipeline stage. */
struct StageHealth
{
    std::string name;
    StageStatus status = StageStatus::Skipped;
    std::string note; //!< fallback taken, error, or skip reason
};

/** Whole-run record. */
struct RunHealth
{
    bool ok = false;       //!< produced, full fidelity, no failures
    bool produced = false; //!< an attribution vector was emitted
    bool degraded = false; //!< any stage ran below full fidelity
    bool interrupted = false; //!< stopped on SIGINT/SIGTERM
    int exitCode = 1;      //!< the process exit the front end owes
    std::string faultPlan; //!< spec string ("" when inactive)
    std::vector<StageHealth> stages;

    /** Stage record by name, or nullptr. */
    const StageHealth *find(const std::string &name) const;

    /** Serialize as pretty-printed JSON (stable field order). */
    std::string toJson() const;
};

/**
 * Write @p health as JSON to @p path (atomic tmp + rename, so a kill
 * mid-write never leaves a truncated report). Throws
 * std::runtime_error when the path is unwritable — front ends
 * preflight it at startup with requireWritableFlagPath.
 */
void writeRunHealth(const std::string &path, const RunHealth &health);

} // namespace fairco2::pipeline

#endif // FAIRCO2_PIPELINE_HEALTH_HH
