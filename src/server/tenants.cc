#include "tenants.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fairco2::server
{

namespace
{

/** Periods per simulated "day" for the diurnal demand carrier. */
constexpr double kDiurnalPeriods = 24.0;

constexpr double kPi = 3.14159265358979323846;

#if defined(__x86_64__)

// ---- The Avx2 kernel -------------------------------------------------
//
// Four (tenant, period) streams run in the four 64-bit lanes of one
// AVX2 register group. Every lane computes exactly what the scalar
// accumulatePeriod() computes, so each sample is the same integer:
//
//  - xoshiro256** next() needs only shifts, xor and add: x*5 is
//    (x<<2)+x and x*9 is (x<<3)+x, both exact modulo 2^64.
//  - next()>>11 is below 2^53. Its 32-bit hi/lo halves become doubles
//    exactly through the 2^84 / 2^52 magic exponents, and their sum is
//    the integer itself; scaling by 2^-53 is then exact, as uniform()'s
//    conversion and multiply are.
//  - 0.5*u is exact, so 0.75 + 0.5*u rounds once, and to the same
//    double even where a compiler contracts it into an FMA.
//  - base * carrier[s] * jitter keeps its operand order: two
//    multiplies, each rounded as in the scalar expression.
//  - roundUnits(): floor (== the scalar truncation, every sample being
//    positive), the exact x - floor(x) >= 0.5 test, then +1. Every
//    sample is below 2^52 (kMaxMeanDemandUnits), so adding 2^52 puts
//    the integer in the mantissa bits, which are the result.
//  - A period's units are integer sums, so summing them lane-wise and
//    then across lanes gives the same totals as the scalar order.
//
// The seeds come from Rng::forkSeed()/stateOf(), the arithmetic
// Rng::fork() and Rng's constructor use, so a lane replays
// base_.fork(tenant).fork(period + 1) exactly.

#define FAIRCO2_AVX2 __attribute__((target("avx2")))

/** Four xoshiro256** states, word k of lane i in lane i of sk. */
struct Lanes
{
    __m256i s0, s1, s2, s3;
};

template <int K>
FAIRCO2_AVX2 inline __m256i
rotlLanes(__m256i x)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
}

FAIRCO2_AVX2 inline __m256i
loadWords(const std::uint64_t *words)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(words));
}

/** Put Rng(@p seed)'s starting state in lane @p lane of @p words. */
inline void
setLaneSeed(std::uint64_t (&words)[4][4], std::size_t lane,
            std::uint64_t seed)
{
    const std::array<std::uint64_t, 4> state = Rng::stateOf(seed);
    for (std::size_t k = 0; k < 4; ++k)
        words[k][lane] = state[k];
}

/** Lanes from four states laid out word-major: words[k][i]. */
FAIRCO2_AVX2 inline Lanes
loadLanes(const std::uint64_t (&words)[4][4])
{
    return Lanes{loadWords(words[0]), loadWords(words[1]),
                 loadWords(words[2]), loadWords(words[3])};
}

/** Rng::next() in every lane. */
FAIRCO2_AVX2 inline __m256i
nextLanes(Lanes &l)
{
    const __m256i times5 =
        _mm256_add_epi64(_mm256_slli_epi64(l.s1, 2), l.s1);
    const __m256i rotated = rotlLanes<7>(times5);
    const __m256i result =
        _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
    const __m256i t = _mm256_slli_epi64(l.s1, 17);
    l.s2 = _mm256_xor_si256(l.s2, l.s0);
    l.s3 = _mm256_xor_si256(l.s3, l.s1);
    l.s1 = _mm256_xor_si256(l.s1, l.s2);
    l.s0 = _mm256_xor_si256(l.s0, l.s3);
    l.s2 = _mm256_xor_si256(l.s2, t);
    l.s3 = rotlLanes<45>(l.s3);
    return result;
}

/** Rng::uniform() of the draws @p raw. */
FAIRCO2_AVX2 inline __m256d
uniformLanes(__m256i raw)
{
    const __m256i bits53 = _mm256_srli_epi64(raw, 11);
    const __m256i hi = _mm256_srli_epi64(bits53, 32);
    const __m256i lo =
        _mm256_blend_epi32(bits53, _mm256_setzero_si256(), 0xAA);
    // 2^84 + hi * 2^32 and 2^52 + lo, each exact.
    const __m256d hi_d = _mm256_castsi256_pd(_mm256_or_si256(
        hi, _mm256_set1_epi64x(0x4530000000000000LL)));
    const __m256d lo_d = _mm256_castsi256_pd(_mm256_or_si256(
        lo, _mm256_set1_epi64x(0x4330000000000000LL)));
    const __m256d whole = _mm256_add_pd(
        _mm256_sub_pd(hi_d, _mm256_set1_pd(0x1.00000001p84)), lo_d);
    return _mm256_mul_pd(whole, _mm256_set1_pd(0x1.0p-53));
}

/** roundUnits() in every lane. */
FAIRCO2_AVX2 inline __m256i
roundUnitsLanes(__m256d x)
{
    const __m256d whole = _mm256_floor_pd(x);
    const __m256d up = _mm256_cmp_pd(_mm256_sub_pd(x, whole),
                                     _mm256_set1_pd(0.5), _CMP_GE_OQ);
    const __m256d rounded =
        _mm256_add_pd(whole, _mm256_and_pd(up, _mm256_set1_pd(1.0)));
    const __m256d magic = _mm256_set1_pd(0x1.0p52);
    return _mm256_sub_epi64(
        _mm256_castpd_si256(_mm256_add_pd(rounded, magic)),
        _mm256_castpd_si256(magic));
}

/** Samples whose per-lane sums live on the stack; longer periods
 *  use a heap buffer. */
constexpr std::size_t kStackSamples = 64;

FAIRCO2_AVX2 std::uint64_t
accumulateAvx2(const TenantPopulation &population, std::uint64_t period,
               std::span<const double> carrier,
               std::span<const std::uint64_t> tenants,
               std::span<std::uint64_t> out)
{
    const std::size_t samples = carrier.size();
    std::uint64_t stack_sums[4 * kStackSamples];
    std::vector<std::uint64_t> heap_sums;
    std::uint64_t *sums = stack_sums;
    if (samples > kStackSamples) {
        heap_sums.resize(4 * samples);
        sums = heap_sums.data();
    }
    std::fill_n(sums, 4 * samples, std::uint64_t{0});

    const std::uint64_t root = population.config().seed;
    const std::size_t groups = tenants.size() / 4;
    for (std::size_t g = 0; g < groups; ++g) {
        std::uint64_t words[4][4] = {};
        double base[4] = {};
        for (std::size_t i = 0; i < 4; ++i) {
            const std::uint64_t tenant = tenants[4 * g + i];
            setLaneSeed(words, i,
                        Rng::forkSeed(Rng::forkSeed(root, tenant),
                                      period + 1));
            base[i] = static_cast<double>(population.baseUnits(tenant));
        }
        Lanes lanes = loadLanes(words);
        const __m256d base_v = _mm256_loadu_pd(base);
        for (std::size_t s = 0; s < samples; ++s) {
            const __m256d jitter = _mm256_add_pd(
                _mm256_set1_pd(0.75),
                _mm256_mul_pd(_mm256_set1_pd(0.5),
                              uniformLanes(nextLanes(lanes))));
            const __m256d demand = _mm256_mul_pd(
                _mm256_mul_pd(base_v, _mm256_set1_pd(carrier[s])),
                jitter);
            std::uint64_t *slot = sums + 4 * s;
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(slot),
                _mm256_add_epi64(loadWords(slot),
                                 roundUnitsLanes(demand)));
        }
    }

    std::uint64_t added = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        const std::uint64_t units = sums[4 * s] + sums[4 * s + 1] +
                                    sums[4 * s + 2] + sums[4 * s + 3];
        out[s] += units;
        added += units;
    }
    // The tail of fewer than four tenants takes the scalar path.
    for (std::size_t t = 4 * groups; t < tenants.size(); ++t)
        added +=
            population.accumulatePeriod(tenants[t], period, carrier, out);
    return added;
}

FAIRCO2_AVX2 void
laneDrawsAvx2(std::span<const std::uint64_t, 4> seeds,
              std::span<std::uint64_t> raw, std::span<double> uniform)
{
    std::uint64_t words[4][4] = {};
    for (std::size_t i = 0; i < 4; ++i)
        setLaneSeed(words, i, seeds[i]);
    Lanes lanes = loadLanes(words);
    for (std::size_t d = 0; d < raw.size(); d += 4) {
        const __m256i draw = nextLanes(lanes);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(&raw[d]), draw);
        _mm256_storeu_pd(&uniform[d], uniformLanes(draw));
    }
}

#undef FAIRCO2_AVX2

#endif // __x86_64__

} // namespace

TenantKernel
bestTenantKernel()
{
#if defined(__x86_64__)
    static const bool avx2 = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    if (avx2)
        return TenantKernel::Avx2;
#endif
    return TenantKernel::Scalar;
}

void
avx2LaneDraws([[maybe_unused]] std::span<const std::uint64_t, 4> seeds,
              std::span<std::uint64_t> raw, std::span<double> uniform)
{
    if (bestTenantKernel() != TenantKernel::Avx2)
        throw std::logic_error("avx2LaneDraws: this CPU has no AVX2");
    if (raw.size() != uniform.size() || raw.size() % 4 != 0)
        throw std::logic_error(
            "avx2LaneDraws: spans must match and hold 4 lanes a draw");
#if defined(__x86_64__)
    laneDrawsAvx2(seeds, raw, uniform);
#endif
}

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
    // mean <= meanDemandUnits <= 2^50, inside roundUnits()'s exact
    // (llround-equal) domain.
    const double mean = static_cast<double>(config_.meanDemandUnits) *
                        weight(tenant);
    return std::max<std::uint64_t>(1, roundUnits(mean));
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

std::uint64_t
TenantPopulation::accumulateTenants(std::uint64_t period,
                                    std::span<const double> carrier,
                                    std::span<const std::uint64_t> tenants,
                                    std::span<std::uint64_t> out,
                                    TenantKernel kernel) const
{
    assert(carrier.size() == config_.periodSamples);
    assert(out.size() == config_.periodSamples);
    if (kernel == TenantKernel::Avx2) {
        if (bestTenantKernel() != TenantKernel::Avx2)
            throw std::logic_error(
                "accumulateTenants: this CPU has no AVX2");
#if defined(__x86_64__)
        return accumulateAvx2(*this, period, carrier, tenants, out);
#endif
    }
    std::uint64_t added = 0;
    for (std::uint64_t tenant : tenants)
        added += accumulatePeriod(tenant, period, carrier, out);
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
