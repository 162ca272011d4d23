#include "common/rng.hh"

#include <cassert>
#include <cmath>
#include <numbers>

namespace fairco2
{

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit && span != 0);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    while (u1 <= 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::index(std::size_t n)
{
    assert(n > 0);
    return static_cast<std::size_t>(
        uniformInt(0, static_cast<std::int64_t>(n) - 1));
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = index(i);
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

std::vector<std::size_t>
Rng::sampleWithoutReplacement(std::size_t n, std::size_t k)
{
    assert(k <= n);
    // Partial Fisher-Yates: shuffle only the first k slots.
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i)
        pool[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + index(n - i);
        std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace fairco2
