/**
 * @file
 * Tests for the truncated factorization that feeds the streaming kernel,
 * Auto's dense fallback for tensors the streaming kernel cannot admit,
 * and bit-identity of the parallel CFD matrix extraction.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "power/layout.hh"
#include "thermal/factorization.hh"
#include "thermal/heat_matrix.hh"
#include "util/parallel.hh"

namespace ecolo::thermal {
namespace {

power::DataCenterLayout
layout()
{
    return power::DataCenterLayout();
}

/** A rank-3 tensor: three separable spatial/temporal components. */
HeatDistributionMatrix
rankThreeMatrix(std::size_t horizon = 10)
{
    const auto lay = layout();
    const std::size_t n = lay.numServers();
    auto base = HeatDistributionMatrix::analyticDefault(
        lay, HeatDistributionMatrix::AnalyticParams(), horizon);
    HeatDistributionMatrix matrix(n, horizon);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double g = base.steadyGain(i, j);
            for (std::size_t tau = 0; tau < horizon; ++tau) {
                const double t = static_cast<double>(tau + 1);
                matrix.coeff(i, j, tau) =
                    g * (0.6 / t +
                         0.3 / (t * t) * (1.0 + 0.5 * ((i + j) % 3)) +
                         0.1 * (tau == 0 ? 1.0 : 0.0) * ((j % 2) + 1));
            }
        }
    }
    return matrix;
}

/**
 * A recorded "attack trace": diurnal-ish benign power with an attack
 * burst in the middle, exercising partial fill, steady state and decay.
 */
std::vector<std::vector<Kilowatts>>
attackTrace(std::size_t num_servers, std::size_t num_minutes)
{
    std::vector<std::vector<Kilowatts>> trace;
    trace.reserve(num_minutes);
    for (std::size_t m = 0; m < num_minutes; ++m) {
        std::vector<Kilowatts> powers(num_servers);
        for (std::size_t j = 0; j < num_servers; ++j) {
            double kw = 0.10 +
                        0.05 * std::sin(0.2 * static_cast<double>(m + j));
            if (m >= 10 && m < 20 && j < 4)
                kw += 0.45; // the attacker's burst on its four servers
            powers[j] = Kilowatts(kw);
        }
        trace.push_back(std::move(powers));
    }
    return trace;
}

TEST(Factorization, AnalyticMatrixIsRankOne)
{
    const auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    const auto factors = TemporalFactorization::compute(matrix);
    EXPECT_EQ(factors.rank(), 1u);
    // The eigensolver's residual floor is ~sqrt(eps), not exact zero.
    EXPECT_LT(factors.relError(), 1e-6);
}

TEST(Factorization, RankThreeTensorNeedsThreeTerms)
{
    const auto factors =
        TemporalFactorization::compute(rankThreeMatrix());
    EXPECT_EQ(factors.rank(), 3u);
    EXPECT_LT(factors.relError(), 1e-6);
}

TEST(Factorization, MaxRankCapIsHonored)
{
    FactorizationOptions opts;
    opts.maxRank = 1;
    const auto factors =
        TemporalFactorization::compute(rankThreeMatrix(), opts);
    EXPECT_EQ(factors.rank(), 1u);
    EXPECT_GT(factors.relError(), 1e-6); // truncation is lossy here
    EXPECT_LT(factors.relError(), 1.0);
}

TEST(Factorization, ReconstructsTensorWithinTolerance)
{
    const auto matrix = rankThreeMatrix();
    const auto factors = TemporalFactorization::compute(matrix);
    const std::size_t n = matrix.numServers();
    for (std::size_t i = 0; i < n; i += 7) {
        for (std::size_t j = 0; j < n; j += 5) {
            for (std::size_t tau = 0; tau < matrix.horizon(); ++tau) {
                double rebuilt = 0.0;
                for (std::size_t r = 0; r < factors.rank(); ++r) {
                    rebuilt += factors.spatial(r)[i * n + j] *
                               factors.temporal(r)[tau];
                }
                EXPECT_NEAR(rebuilt, matrix.coeff(i, j, tau), 1e-12);
            }
        }
    }
}

TEST(FactorizedModel, DenseModeDisablesFactorization)
{
    MatrixThermalModel model(
        HeatDistributionMatrix::analyticDefault(layout()),
        KernelMode::Dense);
    EXPECT_EQ(model.activeKernel(), KernelMode::Dense);
    EXPECT_EQ(model.factorizationRank(), 0u);
}

TEST(FactorizedModel, LowRankRisesMatchDenseOverAttackTrace)
{
    // Rank 3 factorizes within tolerance, but 1/t and 1/t^2 are no short
    // exponential sums: Auto cannot stream, so it runs the dense oracle
    // itself and must match a forced-dense model bit for bit.
    auto matrix = rankThreeMatrix();
    MatrixThermalModel dense(matrix, KernelMode::Dense);
    MatrixThermalModel chosen(std::move(matrix), KernelMode::Auto);
    ASSERT_EQ(chosen.activeKernel(), KernelMode::Dense);

    std::vector<double> dense_rises, chosen_rises;
    for (const auto &powers : attackTrace(dense.numServers(), 30)) {
        dense.pushPowers(powers);
        chosen.pushPowers(powers);
        dense.computeAllRises(dense_rises);
        chosen.computeAllRises(chosen_rises);
        ASSERT_EQ(dense_rises, chosen_rises);
    }
}

TEST(FactorizedModel, FullRankTensorFallsBackToDense)
{
    // A tensor whose temporal shape differs per (i, j) pair has no
    // low-rank structure: Auto must keep the exact dense kernel.
    const auto lay = layout();
    const std::size_t n = lay.numServers();
    const std::size_t horizon = 10;
    HeatDistributionMatrix matrix(n, horizon);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t tau = 0; tau < horizon; ++tau) {
                matrix.coeff(i, j, tau) =
                    0.01 + 0.001 * std::sin(
                               static_cast<double>(i * 131 + j * 17 +
                                                   tau * (j + 3)));
            }
        }
    }
    MatrixThermalModel model(std::move(matrix), KernelMode::Auto);
    EXPECT_EQ(model.activeKernel(), KernelMode::Dense);
}

TEST(FactorizedModel, SteadyGainCacheMatchesDirectSums)
{
    const auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    const std::size_t n = matrix.numServers();
    for (std::size_t i = 0; i < n; i += 3) {
        double total = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            double sum = 0.0;
            for (std::size_t tau = 0; tau < matrix.horizon(); ++tau)
                sum += matrix.coeff(i, j, tau);
            EXPECT_DOUBLE_EQ(matrix.steadyGain(i, j), sum);
            total += sum;
        }
        EXPECT_NEAR(matrix.totalSteadyGain(i), total, 1e-12);
    }
}

TEST(FactorizedModel, GainCacheInvalidatedByCoeffWrite)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    const double before = matrix.steadyGain(0, 0);
    matrix.coeff(0, 0, 0) += 1.0;
    EXPECT_NEAR(matrix.steadyGain(0, 0), before + 1.0, 1e-12);
    EXPECT_NEAR(matrix.totalSteadyGain(0),
                [&] {
                    double total = 0.0;
                    for (std::size_t j = 0; j < matrix.numServers(); ++j)
                        total += matrix.steadyGain(0, j);
                    return total;
                }(),
                1e-12);
}

TEST(ThermalParallel, CfdExtractionBitIdenticalToSerial)
{
    // Small layout + coarse grid keep the two extractions fast.
    power::DataCenterLayout::Params lp;
    lp.numRacks = 1;
    lp.serversPerRack = 6;
    const power::DataCenterLayout lay(lp);
    CfdParams params;
    params.cellSize = 0.3;
    params.dt = 0.12;
    const std::vector<Kilowatts> baseline(lay.numServers(),
                                          Kilowatts(0.15));

    util::ThreadPool::setGlobalThreads(1);
    const auto serial = HeatDistributionMatrix::extractFromCfd(
        lay, params, baseline, Kilowatts(1.0), /*horizon=*/2,
        /*settle=*/minutes(1));
    util::ThreadPool::setGlobalThreads(4);
    const auto parallel = HeatDistributionMatrix::extractFromCfd(
        lay, params, baseline, Kilowatts(1.0), /*horizon=*/2,
        /*settle=*/minutes(1));
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());

    ASSERT_EQ(serial.numServers(), parallel.numServers());
    ASSERT_EQ(serial.horizon(), parallel.horizon());
    for (std::size_t i = 0; i < serial.numServers(); ++i) {
        for (std::size_t j = 0; j < serial.numServers(); ++j) {
            for (std::size_t tau = 0; tau < serial.horizon(); ++tau) {
                EXPECT_EQ(serial.coeff(i, j, tau),
                          parallel.coeff(i, j, tau))
                    << "i=" << i << " j=" << j << " tau=" << tau;
            }
        }
    }
}

} // namespace
} // namespace ecolo::thermal
