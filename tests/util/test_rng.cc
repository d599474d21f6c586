/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/parallel.hh"
#include "util/rng.hh"

namespace ecolo {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(3.0, 5.0);
        EXPECT_GE(u, 3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(13);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 7000; ++i)
        ++counts[rng.uniformInt(7)];
    for (int c : counts)
        EXPECT_GT(c, 700); // each bucket near 1000
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    const int n = 200000;
    double sum = 0.0, sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalShifted)
{
    Rng rng(19);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(23);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(0.5);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonSmallMean)
{
    Rng rng(31);
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(3.0));
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, PoissonLargeMean)
{
    Rng rng(37);
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(100.0));
    EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, PoissonZeroMean)
{
    Rng rng(41);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ForkedStreamsAreIndependentlyDeterministic)
{
    Rng parent1(55), parent2(55);
    Rng child1 = parent1.fork();
    Rng child2 = parent2.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(child1.next(), child2.next());
    // And the fork differs from the parent stream.
    Rng parent3(55);
    Rng child3 = parent3.fork();
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += child3.next() != parent3.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator)
{
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~0ULL);
    Rng rng(61);
    EXPECT_NE(rng(), rng());
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** normals(n) against n calls of normal() on a twin stream: the same
 * values bit for bit, then the same next() and the same normal(). */
void
expectNormalsMatchALoop(std::size_t n, bool cached_on_entry)
{
    Rng loop(71), batch(71);
    if (cached_on_entry) {
        loop.normal();
        batch.normal();
    }
    std::vector<double> want(n), got(n);
    for (double &z : want)
        z = loop.normal();
    batch.normals(got);
    if (n > 0)
        EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)),
                  0)
            << "n=" << n << " cached=" << cached_on_entry;
    EXPECT_EQ(batch.next(), loop.next())
        << "n=" << n << " cached=" << cached_on_entry;
    EXPECT_TRUE(sameBits(batch.normal(), loop.normal()))
        << "n=" << n << " cached=" << cached_on_entry;
}

TEST(ParallelSetup, NormalsMatchALoopOfNormal)
{
    constexpr std::size_t kPerTask = 2 * Rng::kNormalPairsPerTask;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::ThreadPool::setGlobalThreads(threads);
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{2},
              std::size_t{3}, kPerTask - 1, kPerTask, kPerTask + 1,
              std::size_t{525600}})
            for (const bool cached : {false, true})
                expectNormalsMatchALoop(n, cached);
    }
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}

} // namespace
} // namespace ecolo
