#include "resilience/ingest.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/flags.hh"
#include "common/obs.hh"

namespace fairco2::resilience
{

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Per-sample defect classification, in diagnostic wording. */
enum class Defect
{
    None,
    ParseError,
    MissingCell,
    NonFinite,
    InjectedDrop,
    InjectedCorruption,
};

const char *
defectName(Defect defect)
{
    switch (defect) {
      case Defect::ParseError:
        return "non-numeric cell";
      case Defect::MissingCell:
        return "missing cell";
      case Defect::NonFinite:
        return "non-finite value";
      case Defect::InjectedDrop:
        return "injected dropout";
      case Defect::InjectedCorruption:
        return "injected corruption";
      case Defect::None:
        break;
    }
    return "ok";
}

void
countDefect(IngestReport &report, Defect defect)
{
    ++report.rowsBad;
    FAIRCO2_COUNT("resilience.ingest.bad_rows", 1);
    switch (defect) {
      case Defect::ParseError:
        ++report.parseErrors;
        FAIRCO2_COUNT("resilience.ingest.cause.parse", 1);
        break;
      case Defect::MissingCell:
        ++report.missingCells;
        FAIRCO2_COUNT("resilience.ingest.cause.missing", 1);
        break;
      case Defect::NonFinite:
        ++report.nonFinite;
        FAIRCO2_COUNT("resilience.ingest.cause.nonfinite", 1);
        break;
      case Defect::InjectedDrop:
        ++report.injectedDrops;
        FAIRCO2_COUNT("resilience.ingest.cause.injected_drop", 1);
        break;
      case Defect::InjectedCorruption:
        ++report.injectedCorruptions;
        FAIRCO2_COUNT("resilience.ingest.cause.injected_corrupt", 1);
        break;
      case Defect::None:
        break;
    }
}

/**
 * Strict full-consumption double parse. Unlike std::stod alone,
 * trailing garbage ("12x") and textual NaN/Inf are defects here —
 * telemetry columns are plain decimal numbers.
 */
Defect
parseCell(const std::string &text, double &value)
{
    if (text.empty())
        return Defect::MissingCell;
    std::size_t pos = 0;
    try {
        value = std::stod(text, &pos);
    } catch (const std::exception &) {
        return Defect::ParseError;
    }
    if (pos != text.size())
        return Defect::ParseError;
    if (!std::isfinite(value))
        return Defect::NonFinite;
    return Defect::None;
}

/**
 * Linear interpolation repair over samples marked NaN. Edges take
 * the nearest finite value. Requires at least one finite sample.
 */
void
interpolateGaps(std::vector<double> &values)
{
    const std::size_t n = values.size();
    std::size_t prev_good = n; // n = "none yet"
    for (std::size_t i = 0; i < n; ++i) {
        if (!std::isnan(values[i])) {
            prev_good = i;
            continue;
        }
        // Find the end of this gap.
        std::size_t next_good = i;
        while (next_good < n && std::isnan(values[next_good]))
            ++next_good;
        for (std::size_t g = i; g < next_good; ++g) {
            if (prev_good == n && next_good == n) {
                break; // caller guarantees this cannot happen
            } else if (prev_good == n) {
                values[g] = values[next_good];
            } else if (next_good == n) {
                values[g] = values[prev_good];
            } else {
                const double span = static_cast<double>(
                    next_good - prev_good);
                const double frac =
                    static_cast<double>(g - prev_good) / span;
                values[g] = values[prev_good] * (1.0 - frac) +
                    values[next_good] * frac;
            }
        }
        i = next_good; // loop ++i moves past it; next_good is finite
        if (next_good < n)
            prev_good = next_good;
    }
}

} // namespace

void
IngestReport::merge(const IngestReport &other)
{
    rowsTotal += other.rowsTotal;
    rowsBad += other.rowsBad;
    parseErrors += other.parseErrors;
    missingCells += other.missingCells;
    nonFinite += other.nonFinite;
    injectedDrops += other.injectedDrops;
    injectedCorruptions += other.injectedCorruptions;
    repaired += other.repaired;
    skipped += other.skipped;
}

std::string
IngestReport::summary() const
{
    std::ostringstream out;
    out << rowsBad << " bad of " << rowsTotal << " rows ("
        << parseErrors << " parse, " << missingCells << " missing, "
        << nonFinite << " non-finite, "
        << injectedDrops + injectedCorruptions << " injected); "
        << repaired << " interpolated, " << skipped << " skipped";
    return out.str();
}

IngestError::IngestError(const std::string &context, std::size_t row,
                         const std::string &cause)
    : FatalDataError(context + ": row " + std::to_string(row) +
                     ": " + cause),
      row_(row)
{
}

BadRowPolicy
parseBadRowPolicy(const std::string &text)
{
    if (text == "fail")
        return BadRowPolicy::Fail;
    if (text == "skip")
        return BadRowPolicy::Skip;
    if (text == "interpolate")
        return BadRowPolicy::Interpolate;
    throw std::invalid_argument(
        "unknown bad-row policy '" + text +
        "' (known: fail, skip, interpolate)");
}

const char *
badRowPolicyName(BadRowPolicy policy)
{
    switch (policy) {
      case BadRowPolicy::Fail:
        return "fail";
      case BadRowPolicy::Skip:
        return "skip";
      case BadRowPolicy::Interpolate:
        return "interpolate";
    }
    return "unknown";
}

void
addBadRowFlag(FlagSet &flags, std::string *value)
{
    flags.addString("on-bad-row", value,
                    "bad-row policy: fail, skip, or interpolate");
}

BadRowPolicy
applyBadRowFlag(const std::string &value)
{
    try {
        return parseBadRowPolicy(value);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: --on-bad-row: %s\n",
                     error.what());
        std::exit(2);
    }
}

std::vector<double>
numericColumnWithPolicy(const CsvTable &table,
                        const std::string &column,
                        BadRowPolicy policy, const FaultPlan *plan,
                        IngestReport *report,
                        const std::string &context)
{
    const std::size_t col = table.columnIndex(column);
    if (col == std::string::npos)
        throw std::runtime_error("no such CSV column: " + column);

    const std::string where =
        context.empty() ? column : context;
    IngestReport local;
    IngestReport &rep = report ? *report : local;

    // Pass 1: parse strictly; defective samples become NaN markers.
    std::vector<double> values;
    values.reserve(table.rows.size());
    std::vector<std::size_t> bad_rows;
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        ++rep.rowsTotal;
        FAIRCO2_COUNT("resilience.ingest.rows", 1);

        double value = kNaN;
        Defect defect = Defect::None;
        if (plan && plan->fires(FaultSite::IngestDrop, r)) {
            defect = Defect::InjectedDrop;
            plan->noteInjected();
        } else if (col >= table.rows[r].size()) {
            defect = Defect::MissingCell;
        } else {
            defect = parseCell(table.rows[r][col], value);
            if (defect == Defect::None && plan &&
                plan->fires(FaultSite::IngestCorrupt, r)) {
                defect = Defect::InjectedCorruption;
                plan->noteInjected();
            }
        }

        if (defect == Defect::None) {
            values.push_back(value);
            continue;
        }
        countDefect(rep, defect);
        if (policy == BadRowPolicy::Fail)
            throw IngestError(where, r + 1, defectName(defect));
        if (policy == BadRowPolicy::Skip) {
            ++rep.skipped;
            FAIRCO2_COUNT("resilience.ingest.skipped", 1);
            continue;
        }
        values.push_back(kNaN);
        bad_rows.push_back(values.size() - 1);
    }

    if (policy == BadRowPolicy::Interpolate && !bad_rows.empty()) {
        if (bad_rows.size() == values.size())
            throw IngestError(where, 1,
                              "no valid samples to interpolate "
                              "from");
        interpolateGaps(values);
        rep.repaired += bad_rows.size();
        FAIRCO2_COUNT("resilience.ingest.repaired",
                      bad_rows.size());
    }
    if (values.empty())
        throw IngestError(where, 1, "no valid samples");
    return values;
}

trace::TimeSeries
loadSeriesColumn(const std::string &path, const std::string &column,
                 double step_seconds, BadRowPolicy policy,
                 const FaultPlan *plan, IngestReport *report)
{
    const auto table = readCsv(path);
    const std::string where = path + ":" + column;
    IngestReport local;
    IngestReport &rep = report ? *report : local;
    auto values = numericColumnWithPolicy(table, column, policy, plan,
                                          &rep, where);
    // NaNs injected at the module boundary meet the same bad-row
    // policy as defective rows. They are defects of rows already
    // counted above, so the repair pass must not count the rows again.
    if (plan != nullptr && injectBoundaryNans(values, *plan) > 0) {
        const std::size_t rows = rep.rowsTotal;
        repairNonFinite(values, policy, where, &rep);
        rep.rowsTotal = rows;
    }
    return trace::TimeSeries(std::move(values), step_seconds);
}

std::size_t
repairNonFinite(std::vector<double> &values, BadRowPolicy policy,
                const std::string &context, IngestReport *report)
{
    IngestReport local;
    IngestReport &rep = report ? *report : local;

    std::size_t defects = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (std::isfinite(values[i]))
            continue;
        ++defects;
        countDefect(rep, Defect::NonFinite);
        if (policy == BadRowPolicy::Fail)
            throw IngestError(context, i + 1,
                              defectName(Defect::NonFinite));
        // Normalize Inf to NaN so both repair paths see one marker.
        values[i] = kNaN;
    }
    rep.rowsTotal += values.size();
    if (defects == 0)
        return 0;

    if (policy == BadRowPolicy::Skip) {
        std::vector<double> kept;
        kept.reserve(values.size() - defects);
        for (double v : values) {
            if (!std::isnan(v))
                kept.push_back(v);
        }
        values = std::move(kept);
        rep.skipped += defects;
        FAIRCO2_COUNT("resilience.ingest.skipped", defects);
        if (values.empty())
            throw IngestError(context, 1, "no valid samples");
        return defects;
    }

    if (defects == values.size())
        throw IngestError(context, 1,
                          "no valid samples to interpolate from");
    interpolateGaps(values);
    rep.repaired += defects;
    FAIRCO2_COUNT("resilience.ingest.repaired", defects);
    return defects;
}

trace::TimeSeries
repairSeries(const trace::TimeSeries &series, BadRowPolicy policy,
             const std::string &context, IngestReport *report)
{
    std::vector<double> values = series.values();
    repairNonFinite(values, policy, context, report);
    return trace::TimeSeries(std::move(values),
                             series.stepSeconds());
}

} // namespace fairco2::resilience
