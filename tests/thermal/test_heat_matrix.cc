/** @file Unit tests for the heat-distribution matrix model. */

#include <vector>

#include <gtest/gtest.h>

#include "power/layout.hh"
#include "thermal/heat_matrix.hh"

namespace ecolo::thermal {
namespace {

power::DataCenterLayout
layout()
{
    return power::DataCenterLayout();
}

TEST(HeatMatrix, AnalyticDimensions)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    EXPECT_EQ(m.numServers(), 40u);
    EXPECT_EQ(m.horizon(), 10u);
}

TEST(HeatMatrix, AllCoefficientsNonNegative)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    for (std::size_t i = 0; i < m.numServers(); ++i)
        for (std::size_t j = 0; j < m.numServers(); ++j)
            for (std::size_t tau = 0; tau < m.horizon(); ++tau)
                EXPECT_GE(m.coeff(i, j, tau), 0.0);
}

TEST(HeatMatrix, SelfCouplingDominates)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    for (std::size_t i = 0; i < m.numServers(); ++i)
        for (std::size_t j = 0; j < m.numServers(); ++j)
            if (i != j)
                EXPECT_GT(m.steadyGain(i, i), m.steadyGain(i, j));
}

TEST(HeatMatrix, SameRackCouplingDecaysWithDistance)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    // Server 10 (rack 0): neighbors 11 vs far 19.
    EXPECT_GT(m.steadyGain(10, 11), m.steadyGain(10, 19));
}

TEST(HeatMatrix, CrossRackWeakerThanNeighbor)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    // Server 5 (rack 0): same-rack neighbor 6 vs rack-1 server 25.
    EXPECT_GT(m.steadyGain(5, 6), m.steadyGain(5, 25));
}

TEST(HeatMatrix, TopSlotsCoupleMoreStrongly)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    // Total gain of the top slot exceeds the bottom slot's.
    EXPECT_GT(m.totalSteadyGain(19), m.totalSteadyGain(0));
}

TEST(HeatMatrix, TemporalKernelBuildsUpOverMinutes)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    // Early response is the largest increment (1 - e^{-t/T} kernel).
    EXPECT_GT(m.coeff(0, 0, 0), m.coeff(0, 0, 5));
    EXPECT_GT(m.coeff(0, 0, 5), m.coeff(0, 0, 9));
}

TEST(HeatMatrix, SteadyGainIsModestWithContainment)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    for (std::size_t i = 0; i < m.numServers(); ++i) {
        // At 6 kW total (0.15 kW/server), the matrix contribution should
        // stay well below 2 K -- with containment, inlet ~ supply.
        EXPECT_LT(m.totalSteadyGain(i) * 0.15, 2.0);
    }
}

/** Every server's rise from the kernel the model actually runs. */
std::vector<double>
rises(const MatrixThermalModel &model)
{
    std::vector<double> out;
    model.computeAllRises(out);
    return out;
}

TEST(MatrixModel, ConstantPowerReachesSteadyGain)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    const double expected = matrix.totalSteadyGain(0) * 0.15;
    MatrixThermalModel model(std::move(matrix));
    ASSERT_EQ(model.activeKernel(), KernelMode::Streaming);
    const std::vector<Kilowatts> powers(40, Kilowatts(0.15));
    for (int m = 0; m < 15; ++m)
        model.pushPowers(powers);
    EXPECT_NEAR(rises(model)[0], expected, 1e-9);
}

TEST(MatrixModel, RiseIsLinearInPower)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    MatrixThermalModel model1(matrix);
    MatrixThermalModel model2(std::move(matrix));
    const std::vector<Kilowatts> p1(40, Kilowatts(0.1));
    const std::vector<Kilowatts> p2(40, Kilowatts(0.2));
    for (int m = 0; m < 12; ++m) {
        model1.pushPowers(p1);
        model2.pushPowers(p2);
    }
    EXPECT_NEAR(rises(model2)[5], 2.0 * rises(model1)[5], 1e-9);
}

TEST(MatrixModel, ResponseDecaysAfterHeatRemoved)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    MatrixThermalModel model(std::move(matrix));
    ASSERT_EQ(model.activeKernel(), KernelMode::Streaming);
    std::vector<Kilowatts> hot(40, Kilowatts(0.2));
    std::vector<Kilowatts> cold(40, Kilowatts(0.0));
    for (int m = 0; m < 10; ++m)
        model.pushPowers(hot);
    const double peak = rises(model)[0];
    for (int m = 0; m < 10; ++m)
        model.pushPowers(cold);
    // The window has emptied; the recurrence leaves only rounding residue
    // of subtracting each departing sample.
    EXPECT_NEAR(rises(model)[0], 0.0, 1e-12);
    EXPECT_GT(peak, 0.0);
}

TEST(MatrixModel, MaxRiseAtLeastAnyServer)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    MatrixThermalModel model(std::move(matrix));
    std::vector<Kilowatts> powers(40, Kilowatts(0.1));
    powers[7] = Kilowatts(0.45); // one hot attacker server
    for (int m = 0; m < 10; ++m)
        model.pushPowers(powers);
    const double max_rise = model.maxInletRise().value();
    for (double rise : rises(model))
        EXPECT_LE(rise, max_rise + 1e-12);
}

TEST(MatrixModel, ResetClearsHistory)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(layout());
    MatrixThermalModel model(std::move(matrix));
    model.pushPowers(std::vector<Kilowatts>(40, Kilowatts(0.2)));
    model.reset();
    EXPECT_DOUBLE_EQ(model.maxInletRise().value(), 0.0);
}

TEST(HeatMatrixDeathTest, IndexOutOfRange)
{
    const auto m = HeatDistributionMatrix::analyticDefault(layout());
    EXPECT_DEATH(m.coeff(40, 0, 0), "out of range");
    EXPECT_DEATH(m.coeff(0, 0, 10), "out of range");
}

} // namespace
} // namespace ecolo::thermal
