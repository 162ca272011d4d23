#include "tenants.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace fairco2::server
{

namespace
{

/** Periods per simulated "day" for the diurnal demand carrier. */
constexpr double kDiurnalPeriods = 24.0;

constexpr double kPi = 3.14159265358979323846;

} // namespace

const char *
tenantClassName(TenantClass cls)
{
    switch (cls) {
    case TenantClass::Reserved:
        return "reserved";
    case TenantClass::Standard:
        return "standard";
    case TenantClass::Free:
        return "free";
    }
    return "unknown";
}

TenantPopulation::TenantPopulation(const Config &config)
    : config_(config), zipf_(config.tenants, config.zipfS),
      base_(config.seed)
{
    if (config_.periodSamples == 0)
        throw std::invalid_argument(
            "TenantPopulation: periodSamples must be > 0");
    if (config_.maxBatchPeriods == 0)
        throw std::invalid_argument(
            "TenantPopulation: maxBatchPeriods must be > 0");
    if (config_.meanDemandUnits > kMaxMeanDemandUnits)
        throw std::invalid_argument(
            "TenantPopulation: meanDemandUnits must be <= 2^50");
    // Top 1% Reserved (at least one tenant), next 9% Standard.
    reservedRanks_ = std::max<std::size_t>(1, config_.tenants / 100);
    standardRanks_ = std::max(reservedRanks_ + 1,
                              config_.tenants / 10);
    standardRanks_ = std::min(standardRanks_, config_.tenants);
}

TenantClass
TenantPopulation::classOf(std::uint64_t tenant) const
{
    if (tenant < reservedRanks_)
        return TenantClass::Reserved;
    if (tenant < standardRanks_)
        return TenantClass::Standard;
    return TenantClass::Free;
}

std::uint32_t
TenantPopulation::batchPeriods(std::uint64_t tenant) const
{
    // Push cadence tracks rank: rank 0 pushes every period, cadence
    // grows ~logarithmically with rank so the tail batches up to the
    // cap. Pure integer-valued function of (tenant, config).
    const double rank = static_cast<double>(tenant + 1);
    const auto cadence = static_cast<std::uint64_t>(
        1.0 + std::floor(std::log2(rank) / 2.0));
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        cadence, 1, config_.maxBatchPeriods));
}

std::uint32_t
TenantPopulation::phaseOffset(std::uint64_t tenant) const
{
    const std::uint32_t interval = batchPeriods(tenant);
    if (interval == 1)
        return 0;
    // Stream 0 of the tenant's fork is reserved for the phase; period
    // materialization forks on (period + 1) so the streams never
    // collide.
    Rng rng = base_.fork(tenant).fork(0);
    return static_cast<std::uint32_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(interval) - 1));
}

bool
TenantPopulation::pushesAt(std::uint64_t tenant,
                           std::uint64_t period) const
{
    const std::uint32_t interval = batchPeriods(tenant);
    return period % interval == phaseOffset(tenant);
}

BatchRef
TenantPopulation::batchAt(std::uint64_t tenant,
                          std::uint64_t period) const
{
    BatchRef batch;
    batch.tenant = tenant;
    batch.period = period;
    // A batch covers the closed periods [period - interval, period),
    // clipped at period 0: the very first push may cover nothing.
    const std::uint32_t interval = batchPeriods(tenant);
    batch.coveredPeriods = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(interval, period));
    return batch;
}

std::uint64_t
TenantPopulation::baseUnits(std::uint64_t tenant) const
{
    const double mean = static_cast<double>(config_.meanDemandUnits) *
                        weight(tenant);
    const auto units = static_cast<std::uint64_t>(std::llround(mean));
    return std::max<std::uint64_t>(1, units);
}

std::vector<double>
TenantPopulation::diurnalCarrier(std::uint64_t period) const
{
    const std::size_t samples = config_.periodSamples;
    std::vector<double> carrier(samples);
    for (std::size_t s = 0; s < samples; ++s) {
        const double phase =
            (static_cast<double>(period) +
             static_cast<double>(s) / static_cast<double>(samples)) /
            kDiurnalPeriods;
        carrier[s] = 1.0 + 0.5 * std::sin(2.0 * kPi * phase);
    }
    return carrier;
}

std::uint64_t
TenantPopulation::accumulatePeriod(std::uint64_t tenant,
                                   std::uint64_t period,
                                   std::span<const double> carrier,
                                   std::span<std::uint64_t> out) const
{
    // Pure in (seed, tenant, period): the stream is re-derived from
    // the root on every call, so materialization order — and hence
    // shard/thread assignment — cannot change the samples. The
    // carrier is the same double per (period, sample) that an inline
    // std::sin would produce, and the product keeps its operand
    // order, so every sample is bit-identical to computing it here.
    // The constructor's meanDemandUnits bound keeps every product
    // inside roundUnits()'s exact domain.
    const std::size_t samples = config_.periodSamples;
    assert(carrier.size() == samples);
    assert(out.size() == samples);
    Rng rng = base_.fork(tenant).fork(period + 1);
    const double base = static_cast<double>(baseUnits(tenant));
    std::uint64_t added = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        const double jitter = 0.75 + 0.5 * rng.uniform();
        const std::uint64_t units =
            roundUnits(base * carrier[s] * jitter);
        out[s] += units;
        added += units;
    }
    return added;
}

std::vector<std::uint64_t>
TenantPopulation::materializePeriod(std::uint64_t tenant,
                                    std::uint64_t period) const
{
    std::vector<std::uint64_t> out(config_.periodSamples, 0);
    accumulatePeriod(tenant, period, diurnalCarrier(period), out);
    return out;
}

} // namespace fairco2::server
