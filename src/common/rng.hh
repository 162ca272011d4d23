/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * All Monte Carlo components in Fair-CO2 draw randomness through Rng so
 * that every experiment is reproducible from a single 64-bit seed. The
 * generator is xoshiro256** seeded via splitmix64, which is fast, has a
 * 256-bit state, and passes BigCrush.
 */

#ifndef FAIRCO2_COMMON_RNG_HH
#define FAIRCO2_COMMON_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairco2
{

/**
 * Seedable pseudo-random number generator (xoshiro256**).
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * plugged into <random> distributions, although the member helpers below
 * cover everything this project needs.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : seed_(seed), state_(stateOf(seed)), cachedNormal_(0.0),
          hasCachedNormal_(false)
    {
    }

    /**
     * The xoshiro256** state Rng(@p seed) starts from: four splitmix64
     * steps from the seed. Exposed so a batched kernel can run the
     * same stream in SIMD lanes without restating the expansion.
     */
    static std::array<std::uint64_t, 4>
    stateOf(std::uint64_t seed)
    {
        std::array<std::uint64_t, 4> state{};
        for (auto &word : state)
            word = splitmix64(seed);
        return state;
    }

    /**
     * The construction seed of Rng(@p seed).fork(@p stream): fork() is
     * `Rng(forkSeed(seed, stream))`, so a chain of forks is a chain of
     * forkSeed() calls on the root seed.
     */
    static std::uint64_t
    forkSeed(std::uint64_t seed, std::uint64_t stream)
    {
        // Counter-based derivation: scramble (seed, stream) through
        // two splitmix64 steps. The XOR constant keeps fork(0) off the
        // words the constructor already expanded from the bare seed,
        // so a child never replays its parent's state.
        std::uint64_t s = (seed ^ 0x5851f42d4c957f2dULL) +
            (stream + 1) * 0x9e3779b97f4a7c15ULL;
        const std::uint64_t first = splitmix64(s);
        return first ^ splitmix64(s);
    }

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits give a uniform double in [0, 1).
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller with caching). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of returning true. */
    bool bernoulli(double p);

    /** Uniformly random index in [0, n). Requires n > 0. */
    std::size_t index(std::size_t n);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

    /**
     * Sample k distinct indices from [0, n) without replacement.
     * Requires k <= n.
     */
    std::vector<std::size_t> sampleWithoutReplacement(std::size_t n,
                                                      std::size_t k);

    /** Fork an independent stream (for per-trial generators). */
    Rng split();

    /**
     * Derive the independent stream @p stream from this generator's
     * root seed, counter-style: fork(s) is a pure function of
     * (construction seed, s), does not advance this generator, and is
     * therefore safe to call concurrently and identical no matter how
     * many threads a loop runs on. Every parallel trial loop draws
     * its per-trial randomness as base.fork(trial_index).
     */
    Rng
    fork(std::uint64_t stream) const
    {
        return Rng(forkSeed(seed_, stream));
    }

  private:
    /** splitmix64 step, used only to expand seeds into full state. */
    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t seed_; //!< construction seed, for fork()
    std::array<std::uint64_t, 4> state_;
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace fairco2

#endif // FAIRCO2_COMMON_RNG_HH
