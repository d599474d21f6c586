/** @file Unit tests for the ThermalEnvironment facade. */

#include <gtest/gtest.h>

#include "power/layout.hh"
#include "thermal/environment.hh"

namespace ecolo::thermal {
namespace {

ThermalEnvironment
makeEnv()
{
    power::DataCenterLayout layout;
    CoolingParams cooling;
    cooling.capacity = Kilowatts(8.0);
    return ThermalEnvironment(
        HeatDistributionMatrix::analyticDefault(layout), cooling);
}

TEST(Environment, BaselineInletNearSetPoint)
{
    auto env = makeEnv();
    const std::vector<Kilowatts> heat(40, Kilowatts(0.15)); // 6 kW
    for (int m = 0; m < 20; ++m)
        env.stepMinute(heat);
    EXPECT_LT(env.maxInletTemperature().value(), 29.0);
    EXPECT_GE(env.maxInletTemperature().value(), 27.0);
    EXPECT_DOUBLE_EQ(env.supplyTemperature().value(), 27.0);
}

TEST(Environment, MeanInletBetweenSupplyAndMax)
{
    auto env = makeEnv();
    const std::vector<Kilowatts> heat(40, Kilowatts(0.18));
    for (int m = 0; m < 10; ++m)
        env.stepMinute(heat);
    EXPECT_GE(env.meanInletTemperature(), env.supplyTemperature());
    EXPECT_LE(env.meanInletTemperature(), env.maxInletTemperature());
}

TEST(Environment, OverloadDrivesEmergencyTemperature)
{
    auto env = makeEnv();
    // 9 kW against 8 kW capacity: inlet passes 32 C within a few minutes.
    const std::vector<Kilowatts> heat(40, Kilowatts(0.225));
    int minutes_to_cross = 0;
    while (env.maxInletTemperature() < Celsius(32.0) &&
           minutes_to_cross < 30) {
        env.stepMinute(heat);
        ++minutes_to_cross;
    }
    EXPECT_LE(minutes_to_cross, 5);
}

TEST(Environment, ConcentratedAttackHeatsHotspotFirst)
{
    auto env = makeEnv();
    std::vector<Kilowatts> heat(40, Kilowatts(0.15));
    for (std::size_t i = 0; i < 4; ++i)
        heat[i] = Kilowatts(0.45); // attacker servers at 450 W
    for (int m = 0; m < 10; ++m)
        env.stepMinute(heat);
    // Attacker's own inlets (0..3) are hotter than a far server's.
    EXPECT_GT(env.inletTemperature(1).value(),
              env.inletTemperature(30).value());
}

TEST(Environment, RecoversAfterHeatRemoved)
{
    auto env = makeEnv();
    const std::vector<Kilowatts> hot(40, Kilowatts(0.25));
    for (int m = 0; m < 6; ++m)
        env.stepMinute(hot);
    const double peak = env.maxInletTemperature().value();
    const std::vector<Kilowatts> cool(40, Kilowatts(0.10));
    for (int m = 0; m < 60; ++m)
        env.stepMinute(cool);
    EXPECT_LT(env.maxInletTemperature().value(), peak - 2.0);
}

TEST(Environment, ResetRestoresBaseline)
{
    auto env = makeEnv();
    const std::vector<Kilowatts> hot(40, Kilowatts(0.25));
    for (int m = 0; m < 10; ++m)
        env.stepMinute(hot);
    env.reset();
    EXPECT_DOUBLE_EQ(env.supplyTemperature().value(), 27.0);
    EXPECT_DOUBLE_EQ(env.maxInletTemperature().value(), 27.0);
}

TEST(EnvironmentDeathTest, WrongHeatVectorSize)
{
    auto env = makeEnv();
    EXPECT_DEATH(env.stepMinute(std::vector<Kilowatts>(10)), "mismatch");
}

} // namespace
} // namespace ecolo::thermal

namespace ecolo::thermal {
namespace {

TEST(Environment, OutletAboveInlet)
{
    auto env = makeEnv();
    std::vector<Kilowatts> heat(40, Kilowatts(0.15));
    for (int m = 0; m < 5; ++m)
        env.stepMinute(heat);
    // Paper Eqn. (1): T_inlet < T_outlet. At 150 W and the default
    // 15 W/K server airflow, the rise is 10 K.
    for (std::size_t i = 0; i < 40; ++i) {
        EXPECT_GT(env.outletTemperature(i).value(),
                  env.inletTemperature(i).value());
        EXPECT_NEAR((env.outletTemperature(i) -
                     env.inletTemperature(i)).value(),
                    10.0, 1e-9);
    }
}

TEST(Environment, OutletScalesWithServerHeat)
{
    auto env = makeEnv();
    std::vector<Kilowatts> heat(40, Kilowatts(0.10));
    heat[7] = Kilowatts(0.45); // one attacking server
    env.stepMinute(heat);
    const double hot_rise =
        (env.outletTemperature(7) - env.inletTemperature(7)).value();
    const double cool_rise =
        (env.outletTemperature(8) - env.inletTemperature(8)).value();
    EXPECT_NEAR(hot_rise, 30.0, 1e-9);  // 450 W / 15 W/K
    EXPECT_NEAR(cool_rise, 100.0 / 15.0, 1e-9);
}

TEST(Environment, SuppliedTotalMatchesComputedTotalBitForBit)
{
    // The slot loop hands over the total it already summed; an overload
    // (12 kW on 8 kW) exercises the cooling path that reads it.
    auto computed = makeEnv();
    auto supplied = makeEnv();
    std::vector<Kilowatts> heat(40, Kilowatts(0.0));
    for (int m = 0; m < 60; ++m) {
        Kilowatts total(0.0);
        for (std::size_t i = 0; i < heat.size(); ++i) {
            heat[i] = Kilowatts(0.1 + 0.01 * static_cast<double>(
                                          (i * 7 + m) % 29));
            total += heat[i];
        }
        computed.stepMinute(heat);
        supplied.stepMinute(heat, total);
        ASSERT_EQ(computed.supplyTemperature().value(),
                  supplied.supplyTemperature().value());
        for (std::size_t i = 0; i < heat.size(); ++i)
            ASSERT_EQ(computed.inletTemperature(i).value(),
                      supplied.inletTemperature(i).value());
    }
    EXPECT_GT(computed.supplyTemperature().value(), 27.0);
}

TEST(Environment, OutletBeforeAnyStepIsInlet)
{
    auto env = makeEnv();
    EXPECT_DOUBLE_EQ(env.outletTemperature(0).value(),
                     env.inletTemperature(0).value());
}

} // namespace
} // namespace ecolo::thermal
