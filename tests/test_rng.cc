/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/rng.hh"

namespace fairco2
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i) {
        if (a.next() != b.next())
            ++differing;
    }
    EXPECT_GT(differing, 24);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-3.0, 5.0);
        ASSERT_GE(x, -3.0);
        ASSERT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(12);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled)
{
    Rng rng(14);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(15);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsValid)
{
    Rng rng(16);
    const auto perm = rng.permutation(50);
    ASSERT_EQ(perm.size(), 50u);
    std::set<std::size_t> unique(perm.begin(), perm.end());
    EXPECT_EQ(unique.size(), 50u);
    EXPECT_EQ(*unique.begin(), 0u);
    EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(Rng, PermutationEmptyAndSingle)
{
    Rng rng(17);
    EXPECT_TRUE(rng.permutation(0).empty());
    const auto one = rng.permutation(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 0u);
}

TEST(Rng, PermutationIsUnbiasedFirstElement)
{
    Rng rng(18);
    std::vector<int> counts(5, 0);
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.permutation(5)[0]];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(19);
    for (int trial = 0; trial < 100; ++trial) {
        const auto sample = rng.sampleWithoutReplacement(15, 6);
        ASSERT_EQ(sample.size(), 6u);
        std::set<std::size_t> unique(sample.begin(), sample.end());
        EXPECT_EQ(unique.size(), 6u);
        for (auto s : sample)
            EXPECT_LT(s, 15u);
    }
}

TEST(Rng, SampleWithoutReplacementFull)
{
    Rng rng(20);
    const auto sample = rng.sampleWithoutReplacement(4, 4);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 4u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng rng(21);
    Rng child = rng.split();
    // The child stream should not replay the parent stream.
    int equal = 0;
    for (int i = 0; i < 16; ++i) {
        if (rng.next() == child.next())
            ++equal;
    }
    EXPECT_LT(equal, 4);
}

TEST(Rng, IndexStaysInRange)
{
    Rng rng(22);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(rng.index(7), 7u);
}

/** The first eight next() and uniform() bit patterns of one stream,
 *  recorded from the out-of-line generator this one replaced. */
struct PinnedStream
{
    Rng rng;
    std::uint64_t next[8];
    std::uint64_t uniformBits[8];
};

TEST(Rng, StreamIsPinned)
{
    // Every published signal is a function of these streams, so the
    // generator's arithmetic (seeding, step, uniform, fork) must never
    // change, however it is compiled.
    const PinnedStream pins[] = {
        {Rng(42),
         {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
          0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL,
          0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
          0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL},
         {0x3fb5780b2e0c2ec0ULL, 0x3fd84136619b444eULL,
          0x3fe5c2ea66473c93ULL, 0x3fed9715a8e0766cULL,
          0x3fefbcdb8ffc5d8bULL, 0x3fe8a1b4a6202f2aULL,
          0x3fe7042a90ab4cbbULL, 0x3feb3344e87d7cc0ULL}},
        {Rng(42).fork(7),
         {0x3a3123a0719b939fULL, 0x6b0e0071e0b1496aULL,
          0x049c9b0cdc7bbeb0ULL, 0x3e0f0cf0fbe87654ULL,
          0xd4f7b1dc04e65b24ULL, 0x418094da45a43b31ULL,
          0x34b1d458d6c44536ULL, 0x6fed0c4651d01fa6ULL},
         {0x3fcd1891d038cdc8ULL, 0x3fdac3801c782c52ULL,
          0x3f92726c3371eee0ULL, 0x3fcf0786787df438ULL,
          0x3fea9ef63b809ccbULL, 0x3fd060253691690eULL,
          0x3fca58ea2c6b6220ULL, 0x3fdbfb4311947406ULL}},
        {Rng(1).fork(3).fork(11),
         {0x273b3b2129cee2acULL, 0x1a8f8f6b37dca210ULL,
          0xae1da6abb20e140fULL, 0x39388b5d61f2c9e4ULL,
          0x36e282f4a217cf92ULL, 0x27db0aa95d6f7fa4ULL,
          0x34a5217d5971b8aeULL, 0x0a3e70abca74e99bULL},
         {0x3fc39d9d9094e770ULL, 0x3fba8f8f6b37dca0ULL,
          0x3fe5c3b4d57641c2ULL, 0x3fcc9c45aeb0f964ULL,
          0x3fcb71417a510be4ULL, 0x3fc3ed8554aeb7bcULL,
          0x3fca5290beacb8dcULL, 0x3fa47ce15794e9d0ULL}},
    };
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        Rng raw = pins[i].rng;
        Rng unit = pins[i].rng;
        for (std::size_t k = 0; k < 8; ++k) {
            EXPECT_EQ(raw.next(), pins[i].next[k])
                << "stream " << i << " draw " << k;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(unit.uniform()),
                      pins[i].uniformBits[k])
                << "stream " << i << " draw " << k;
        }
    }
}

TEST(Rng, ForkIsPureAndReproducible)
{
    const Rng rng(23);
    Rng a = rng.fork(5);
    Rng b = rng.fork(5);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkDoesNotAdvanceParent)
{
    Rng forked(24), untouched(24);
    (void)forked.fork(0);
    (void)forked.fork(17);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(forked.next(), untouched.next());
}

TEST(Rng, ForkStreamsDifferAndAvoidParent)
{
    Rng rng(25);
    Rng zero = rng.fork(0);
    Rng one = rng.fork(1);
    int equal_parent = 0, equal_sibling = 0;
    for (int i = 0; i < 32; ++i) {
        const auto z = zero.next();
        equal_sibling += z == one.next() ? 1 : 0;
        equal_parent += z == rng.next() ? 1 : 0;
    }
    EXPECT_LT(equal_sibling, 4);
    EXPECT_LT(equal_parent, 4);
}

TEST(Rng, ForkedStreamsAreStatisticallyIndependent)
{
    // Adjacent stream ids are the worst case for a counter-derived
    // fork. Check that their uniform outputs are uncorrelated and
    // individually unbiased: over n pairs, the sample correlation of
    // independent U(0,1) draws is ~N(0, 1/n).
    const Rng root(4242);
    const int streams = 64;
    const int draws = 512;
    const int n = streams * draws;
    double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_yy = 0.0,
           sum_xy = 0.0;
    for (int s = 0; s < streams; ++s) {
        Rng a = root.fork(static_cast<std::uint64_t>(s));
        Rng b = root.fork(static_cast<std::uint64_t>(s) + 1);
        for (int i = 0; i < draws; ++i) {
            const double x = a.uniform();
            const double y = b.uniform();
            sum_x += x;
            sum_y += y;
            sum_xx += x * x;
            sum_yy += y * y;
            sum_xy += x * y;
        }
    }
    const double mean_x = sum_x / n, mean_y = sum_y / n;
    EXPECT_NEAR(mean_x, 0.5, 0.01);
    EXPECT_NEAR(mean_y, 0.5, 0.01);
    const double var_x = sum_xx / n - mean_x * mean_x;
    const double var_y = sum_yy / n - mean_y * mean_y;
    const double cov = sum_xy / n - mean_x * mean_y;
    const double corr = cov / std::sqrt(var_x * var_y);
    // 1/sqrt(n) ~ 0.0055; allow ~4 sigma.
    EXPECT_LT(std::abs(corr), 0.025);
}

TEST(Rng, ForkDistinctStreamsProduceDistinctOutput)
{
    const Rng root(26);
    std::set<std::uint64_t> first_draws;
    for (std::uint64_t s = 0; s < 512; ++s)
        first_draws.insert(root.fork(s).next());
    EXPECT_EQ(first_draws.size(), 512u);
}

} // namespace
} // namespace fairco2
