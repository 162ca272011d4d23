#include "resilience/faultplan.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/flags.hh"
#include "common/obs.hh"

namespace fairco2::resilience
{

namespace
{

/** Full-consumption double parse; throws on garbage. */
double
strictDouble(const std::string &text)
{
    if (text.empty())
        throw std::invalid_argument("empty value");
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size())
        throw std::invalid_argument("trailing garbage in '" + text +
                                    "'");
    return v;
}

double
probability(const std::string &key, const std::string &text)
{
    const double p = strictDouble(text);
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument("fault-plan " + key +
                                    " must be in [0, 1], got '" +
                                    text + "'");
    return p;
}

/** Decision stream id: site in the top byte, index below. */
std::uint64_t
streamOf(FaultSite site, std::uint64_t index)
{
    return (static_cast<std::uint64_t>(site) << 56) ^
        (index & ((std::uint64_t{1} << 56) - 1));
}

} // namespace

FaultPlan &
FaultPlan::operator=(const FaultPlan &other)
{
    if (this == &other)
        return *this;
    spec_ = other.spec_;
    root_ = other.root_;
    active_ = other.active_;
    drop_ = other.drop_;
    corrupt_ = other.corrupt_;
    nan_ = other.nan_;
    nodeFail_ = other.nodeFail_;
    vmPreempt_ = other.vmPreempt_;
    cacheCorrupt_ = other.cacheCorrupt_;
    injected_.store(other.injected_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    plan.spec_ = spec;
    std::uint64_t seed = 1;

    std::string token;
    std::vector<std::string> tokens;
    for (char c : spec + ",") {
        if (c == ',') {
            if (!token.empty())
                tokens.push_back(token);
            token.clear();
        } else if (c != ' ') {
            token += c;
        }
    }

    for (const auto &entry : tokens) {
        const auto eq = entry.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "fault-plan entry '" + entry +
                "' is not key=value");
        const std::string key = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);
        if (key == "seed") {
            const double v = strictDouble(value);
            if (v < 0.0 || v != std::floor(v))
                throw std::invalid_argument(
                    "fault-plan seed must be a non-negative "
                    "integer, got '" + value + "'");
            seed = static_cast<std::uint64_t>(v);
        } else if (key == "drop") {
            plan.drop_ = probability(key, value);
        } else if (key == "corrupt") {
            plan.corrupt_ = probability(key, value);
        } else if (key == "nan") {
            plan.nan_ = probability(key, value);
        } else if (key == "node-fail") {
            plan.nodeFail_ = probability(key, value);
        } else if (key == "vm-preempt") {
            plan.vmPreempt_ = probability(key, value);
        } else if (key == "cache-corrupt") {
            plan.cacheCorrupt_ = probability(key, value);
        } else {
            throw std::invalid_argument(
                "unknown fault-plan key '" + key +
                "' (known: seed, drop, corrupt, nan, node-fail, "
                "vm-preempt, cache-corrupt)");
        }
    }

    // Salt keeps plan streams disjoint from simulation seeds.
    plan.root_ = Rng(seed ^ 0x9d5af0c6b2e17d35ULL);
    plan.active_ = plan.drop_ > 0.0 || plan.corrupt_ > 0.0 ||
        plan.nan_ > 0.0 || plan.nodeFail_ > 0.0 ||
        plan.vmPreempt_ > 0.0 || plan.cacheCorrupt_ > 0.0;
    return plan;
}

double
FaultPlan::probabilityFor(FaultSite site) const
{
    switch (site) {
      case FaultSite::TelemetryDrop:
      case FaultSite::IngestDrop:
        return drop_;
      case FaultSite::TelemetryCorrupt:
      case FaultSite::IngestCorrupt:
        return corrupt_;
      case FaultSite::NanBoundary:
        return nan_;
      case FaultSite::NodeFail:
        return nodeFail_;
      case FaultSite::VmPreempt:
        return vmPreempt_;
      case FaultSite::CacheCorrupt:
        return cacheCorrupt_;
      default:
        return 0.0;
    }
}

bool
FaultPlan::fires(FaultSite site, std::uint64_t index) const
{
    const double p = probabilityFor(site);
    if (p <= 0.0)
        return false;
    Rng decision = root_.fork(streamOf(site, index));
    return decision.uniform() < p;
}

double
FaultPlan::draw(FaultSite site, std::uint64_t index, double lo,
                double hi) const
{
    Rng decision = root_.fork(streamOf(site, index));
    return decision.uniform(lo, hi);
}

double
FaultPlan::nodeFailureTime(std::size_t node, double horizon) const
{
    if (!fires(FaultSite::NodeFail, node))
        return -1.0;
    return draw(FaultSite::NodeFailTime, node, 0.0, horizon);
}

double
FaultPlan::vmPreemptionFraction(std::uint64_t vm) const
{
    if (!fires(FaultSite::VmPreempt, vm))
        return -1.0;
    return draw(FaultSite::VmPreemptTime, vm, 0.05, 0.95);
}

std::uint64_t
injectTelemetryFaults(std::vector<double> &values,
                      const FaultPlan &plan)
{
    if (!plan.active())
        return 0;
    std::uint64_t injected = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (plan.fires(FaultSite::TelemetryDrop, i)) {
            values[i] = std::numeric_limits<double>::quiet_NaN();
            ++injected;
            FAIRCO2_COUNT("resilience.fault.telemetry_drop", 1);
        } else if (plan.fires(FaultSite::TelemetryCorrupt, i)) {
            values[i] *=
                plan.draw(FaultSite::CorruptValue, i, -2.0, 2.0);
            ++injected;
            FAIRCO2_COUNT("resilience.fault.telemetry_corrupt", 1);
        }
    }
    plan.noteInjected(injected);
    return injected;
}

trace::TimeSeries
injectTelemetryFaults(const trace::TimeSeries &series,
                      const FaultPlan &plan, std::uint64_t *injected)
{
    std::vector<double> values = series.values();
    const std::uint64_t n = injectTelemetryFaults(values, plan);
    if (injected)
        *injected = n;
    return trace::TimeSeries(std::move(values),
                             series.stepSeconds());
}

std::uint64_t
injectBoundaryNans(std::vector<double> &values, const FaultPlan &plan)
{
    if (!plan.active())
        return 0;
    std::uint64_t injected = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (plan.fires(FaultSite::NanBoundary, i)) {
            values[i] = std::numeric_limits<double>::quiet_NaN();
            ++injected;
            FAIRCO2_COUNT("resilience.fault.nan_injected", 1);
        }
    }
    plan.noteInjected(injected);
    return injected;
}

void
addFaultPlanFlag(FlagSet &flags, std::string *spec)
{
    flags.addString(
        "fault-plan", spec,
        "deterministic fault injection spec, e.g. "
        "seed=42,drop=0.01,corrupt=0.005 (empty: no faults)");
}

FaultPlan
applyFaultPlanFlag(const std::string &spec)
{
    if (spec.empty())
        return FaultPlan();
    try {
        return FaultPlan::parse(spec);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: --fault-plan: %s\n",
                     error.what());
        std::exit(2);
    }
}

} // namespace fairco2::resilience
