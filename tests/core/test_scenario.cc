/** @file Unit tests for scenario-file application. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/scenario.hh"

namespace ecolo::core {
namespace {

KeyValueConfig
parse(const std::string &text)
{
    std::istringstream in(text);
    return KeyValueConfig::parse(in);
}

TEST(Scenario, EmptyScenarioKeepsDefaults)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(KeyValueConfig{}, config);
    EXPECT_DOUBLE_EQ(config.capacity.value(), 8.0);
    EXPECT_DOUBLE_EQ(config.batterySpec.capacity.value(), 0.2);
}

TEST(Scenario, OverridesBatteryAndAttack)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("battery.capacityKwh = 0.4\n"
                        "battery.dischargeRateKw = 2.0\n"
                        "attacker.attackLoadKw = 2.0\n"),
                  config);
    EXPECT_DOUBLE_EQ(config.batterySpec.capacity.value(), 0.4);
    EXPECT_DOUBLE_EQ(config.attackLoad.value(), 2.0);
}

TEST(Scenario, OverridesCoolingAndProtocol)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("cooling.capacityKw = 8.8\n"
                        "cooling.setPointC = 20\n"
                        "protocol.cappingMinutes = 10\n"
                        "protocol.outageRestartMinutes = 30\n"),
                  config);
    EXPECT_DOUBLE_EQ(config.cooling.capacity.value(), 8.8);
    EXPECT_DOUBLE_EQ(config.cooling.supplySetPoint.value(), 20.0);
    EXPECT_EQ(config.cappingMinutes, 10);
    EXPECT_EQ(config.outageRestartMinutes, 30);
}

TEST(Scenario, TraceKindParsing)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("traceKind = google\n"), config);
    EXPECT_EQ(config.traceKind, TraceKind::GoogleStyle);
    applyScenario(parse("traceKind = diurnal\n"), config);
    EXPECT_EQ(config.traceKind, TraceKind::Diurnal);
}

TEST(Scenario, SeedAndUtilization)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("seed = 777\naverageUtilization = 0.8\n"), config);
    EXPECT_EQ(config.seed, 777u);
    EXPECT_DOUBLE_EQ(config.averageUtilization, 0.8);
}

TEST(ScenarioDeathTest, UnknownKeyRejected)
{
    auto config = SimulationConfig::paperDefault();
    EXPECT_DEATH(applyScenario(parse("batery.capacityKwh = 0.4\n"),
                               config),
                 "unknown scenario key");
}

TEST(Scenario, UnknownKeyToleratedWhenAsked)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("custom.key = 1\n"), config,
                  /*allow_unknown=*/true);
    EXPECT_DOUBLE_EQ(config.capacity.value(), 8.0);
}

TEST(ScenarioDeathTest, InvalidResultRejected)
{
    // Overrides that individually parse but produce an invalid config
    // must fail validation.
    auto config = SimulationConfig::paperDefault();
    EXPECT_DEATH(applyScenario(
                     parse("battery.dischargeRateKw = 0.5\n"), config),
                 "discharge rate");
}

TEST(ScenarioDeathTest, BadTraceKind)
{
    auto config = SimulationConfig::paperDefault();
    EXPECT_DEATH(applyScenario(parse("traceKind = sinusoid\n"), config),
                 "unknown traceKind");
}

TEST(Scenario, DescribePrintsKeyFields)
{
    const auto config = SimulationConfig::paperDefault();
    std::ostringstream oss;
    describeConfig(oss, config);
    const std::string out = oss.str();
    EXPECT_NE(out.find("capacity (kW)"), std::string::npos);
    EXPECT_NE(out.find("8.00"), std::string::npos);
    EXPECT_NE(out.find("40 / 4"), std::string::npos);
}

} // namespace
} // namespace ecolo::core

namespace ecolo::core {
namespace {

TEST(Scenario, RequestTraceKind)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("traceKind = request\n"), config);
    EXPECT_EQ(config.traceKind, TraceKind::RequestLevel);
}

TEST(Scenario, FaultKeysBuildTheSchedule)
{
    auto config = SimulationConfig::paperDefault();
    // fault.* keys must be consumed before the unknown-key sweep.
    applyScenario(parse("fault.0.type = crac_capacity_loss\n"
                        "fault.0.startDay = 10\n"
                        "fault.0.durationMinutes = 120\n"
                        "fault.0.magnitude = 0.4\n"),
                  config);
    ASSERT_EQ(config.faultSchedule.size(), 1u);
    EXPECT_EQ(config.faultSchedule.firstStart(), 10 * kMinutesPerDay);
}

TEST(Scenario, TryApplyReportsStructuredErrors)
{
    auto config = SimulationConfig::paperDefault();
    const auto unknown =
        tryApplyScenario(parse("no.such.key = 1\n"), config);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.error().code, util::ErrorCode::ParseError);
    EXPECT_NE(unknown.error().message.find("no.such.key"),
              std::string::npos);

    auto fresh = SimulationConfig::paperDefault();
    const auto invalid = tryApplyScenario(
        parse("battery.chargeEfficiency = 1.7\n"), fresh);
    ASSERT_FALSE(invalid.ok());
    EXPECT_EQ(invalid.error().code, util::ErrorCode::ValidationError);
    EXPECT_NE(invalid.error().message.find("(0, 1]"), std::string::npos);

    auto fresh2 = SimulationConfig::paperDefault();
    const auto nan_value =
        tryApplyScenario(parse("cooling.airVolumeM3 = nan\n"), fresh2);
    ASSERT_FALSE(nan_value.ok());
    EXPECT_EQ(nan_value.error().code, util::ErrorCode::ValidationError);
    EXPECT_NE(nan_value.error().message.find("finite"),
              std::string::npos);
}

TEST(Scenario, ThermalKernelAcceptsOnlyAutoOrDense)
{
    auto config = SimulationConfig::paperDefault();
    applyScenario(parse("thermal.kernel = dense\n"), config);
    EXPECT_EQ(config.thermalMode, thermal::KernelMode::Dense);

    std::istringstream in("seed = 3\nthermal.kernel = factorized\n");
    const auto kv = KeyValueConfig::tryParse(in, "site.cfg");
    ASSERT_TRUE(kv.ok());
    auto fresh = SimulationConfig::paperDefault();
    const auto result = tryApplyScenario(kv.value(), fresh);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, util::ErrorCode::ParseError);
    EXPECT_NE(result.error().message.find("site.cfg:2"), std::string::npos)
        << result.error().message;
    EXPECT_NE(result.error().message.find("auto|dense"), std::string::npos)
        << result.error().message;
}

TEST(Scenario, StreamingToleranceKeyIsUnknown)
{
    auto config = SimulationConfig::paperDefault();
    const auto result = tryApplyScenario(
        parse("thermal.streamingTolerance = 1e-6\n"), config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, util::ErrorCode::ParseError);
    EXPECT_NE(result.error().message.find("unknown scenario key"),
              std::string::npos);
    EXPECT_NE(result.error().message.find("thermal.streamingTolerance"),
              std::string::npos);
}

} // namespace
} // namespace ecolo::core
