/** @file Integration tests for the simulation engine as a whole. */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/setup_cache.hh"
#include "stat_reader.hh"
#include "telemetry/telemetry.hh"
#include "util/state_io.hh"

namespace ecolo::core {
namespace {

TEST(Engine, NoAttackMeansNoEmergencies)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    sim.runDays(7.0);
    EXPECT_EQ(sim.metrics().emergencies(), 0u);
    EXPECT_EQ(sim.metrics().outages(), 0u);
    EXPECT_LT(sim.metrics().maxInlet().max(), 32.0);
}

TEST(Engine, AverageUtilizationNearTarget)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    OnlineStats metered;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        metered.add(r.meteredTotal.value());
    });
    sim.runDays(14.0);
    // 75% of 8 kW = 6 kW (two weeks of a year-long trace; allow slack for
    // seasonal variation within the trace).
    EXPECT_NEAR(metered.mean(), 6.0, 0.5);
}

TEST(Engine, MeteredPowerNeverExceedsCapacity)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config,
                   makeMyopicPolicy(config, Kilowatts(7.4)));
    double max_metered = 0.0;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        max_metered = std::max(max_metered, r.meteredTotal.value());
    });
    sim.runDays(10.0);
    EXPECT_LE(max_metered, config.capacity.value() + 1e-6);
}

TEST(Engine, AttackIsBehindTheMeter)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config,
                   makeMyopicPolicy(config, Kilowatts(7.2)));
    bool saw_attack = false;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        if (r.action == AttackAction::Attack &&
            r.attackBatteryPower.value() > 0.5) {
            saw_attack = true;
            // True heat exceeds what the meter reports by the battery
            // injection.
            EXPECT_NEAR(r.actualHeat.value(),
                        r.meteredTotal.value() +
                            r.attackBatteryPower.value(),
                        1e-6);
        }
    });
    sim.runDays(10.0);
    EXPECT_TRUE(saw_attack);
}

TEST(Engine, ChargingShowsActualBelowMetered)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    // Deplete the battery first so the standby policy recharges.
    bool saw_charge_gap = false;
    Simulation sim2(config, makeMyopicPolicy(config, Kilowatts(7.2)));
    sim2.setMinuteCallback([&](const MinuteRecord &r) {
        if (r.action == AttackAction::Charge &&
            r.meteredTotal.value() > r.actualHeat.value() + 0.05) {
            saw_charge_gap = true;
        }
    });
    sim2.runDays(10.0);
    EXPECT_TRUE(saw_charge_gap);
}

TEST(Engine, DeterministicForSameSeed)
{
    auto config = SimulationConfig::paperDefault();
    Simulation a(config, makeMyopicPolicy(config, Kilowatts(7.3)));
    Simulation b(config, makeMyopicPolicy(config, Kilowatts(7.3)));
    std::vector<double> trace_a, trace_b;
    a.setMinuteCallback([&](const MinuteRecord &r) {
        trace_a.push_back(r.actualHeat.value());
    });
    b.setMinuteCallback([&](const MinuteRecord &r) {
        trace_b.push_back(r.actualHeat.value());
    });
    a.runDays(3.0);
    b.runDays(3.0);
    ASSERT_EQ(trace_a.size(), trace_b.size());
    for (std::size_t i = 0; i < trace_a.size(); ++i)
        EXPECT_DOUBLE_EQ(trace_a[i], trace_b[i]);
}

std::string
serializedState(const Simulation &sim)
{
    std::ostringstream os;
    util::StateWriter writer(os);
    sim.saveState(writer);
    return os.str();
}

TEST(Engine, PhaseClockTimesEverySlotAndMovesNothing)
{
    auto config = SimulationConfig::paperDefault();
    Simulation timed(config, makeMyopicPolicy(config, Kilowatts(7.3)));
    Simulation plain(config, makeMyopicPolicy(config, Kilowatts(7.3)));
    telemetry::resetForTest();
    telemetry::setEnabled(true); // telemetry's switch is the clock's
    timed.runDays(1.0);
    telemetry::setEnabled(false);
    plain.runDays(1.0);
    EXPECT_EQ(serializedState(timed), serializedState(plain));

    if (!telemetry::kCompiledIn) {
        EXPECT_EQ(telemetry::registry().find("engine.phase.slots"),
                  nullptr);
        return;
    }
    const auto &reg = telemetry::registry();
    EXPECT_EQ(test::readStat(reg, "engine.phase.slots"),
              static_cast<double>(kMinutesPerDay));
    double total = 0.0;
    for (std::size_t p = 0; p < kNumSlotPhases; ++p) {
        total += test::readStat(
            reg, std::string("engine.phase.") +
                     slotPhaseName(static_cast<SlotPhase>(p)) + "_ns");
    }
    EXPECT_GT(total, 0.0);
    EXPECT_GT(test::readStat(reg, "engine.phase.thermal_ns"), 0.0);

    // Telemetry off: the clock times nothing more.
    timed.runDays(1.0);
    EXPECT_EQ(test::readStat(reg, "engine.phase.slots"),
              static_cast<double>(kMinutesPerDay));
    telemetry::resetForTest();
}

TEST(Engine, StreamingThermalModeMatchesDense)
{
    // The paper-default analytic matrix is exactly one exponential mode,
    // so Auto runs the streaming kernel; the campaign trajectory must
    // match the dense reference to rounding error (no behavioral drift).
    auto dense_config = SimulationConfig::paperDefault();
    dense_config.thermalMode = thermal::KernelMode::Dense;
    auto auto_config = SimulationConfig::paperDefault();
    Simulation dense(dense_config,
                     makeMyopicPolicy(dense_config, Kilowatts(7.3)));
    Simulation fast(auto_config,
                    makeMyopicPolicy(auto_config, Kilowatts(7.3)));
    EXPECT_EQ(dense.thermalEnvironment().matrixModel().activeKernel(),
              thermal::KernelMode::Dense);
    EXPECT_EQ(fast.thermalEnvironment().matrixModel().activeKernel(),
              thermal::KernelMode::Streaming);

    std::vector<double> inlet_dense, inlet_fast;
    dense.setMinuteCallback([&](const MinuteRecord &r) {
        inlet_dense.push_back(r.maxInlet.value());
    });
    fast.setMinuteCallback([&](const MinuteRecord &r) {
        inlet_fast.push_back(r.maxInlet.value());
    });
    dense.runDays(3.0);
    fast.runDays(3.0);
    ASSERT_EQ(inlet_dense.size(), inlet_fast.size());
    for (std::size_t i = 0; i < inlet_dense.size(); ++i)
        EXPECT_NEAR(inlet_dense[i], inlet_fast[i], 1e-9);
    EXPECT_EQ(dense.metrics().emergencies(), fast.metrics().emergencies());
    EXPECT_EQ(dense.metrics().outages(), fast.metrics().outages());
}

TEST(Engine, DifferentSeedsDiffer)
{
    auto config_a = SimulationConfig::paperDefault();
    auto config_b = config_a;
    config_b.seed = 777;
    Simulation a(config_a, std::make_unique<StandbyPolicy>());
    Simulation b(config_b, std::make_unique<StandbyPolicy>());
    OnlineStats pa, pb;
    a.setMinuteCallback([&](const MinuteRecord &r) {
        pa.add(r.benignPower.value());
    });
    b.setMinuteCallback([&](const MinuteRecord &r) {
        pb.add(r.benignPower.value());
    });
    a.run(600);
    b.run(600);
    EXPECT_NE(pa.mean(), pb.mean());
}

TEST(Engine, SubscriptionsNeverViolated)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.2)));
    sim.setMinuteCallback([&](const MinuteRecord &) {
        const auto &pdu = sim.pdu();
        for (std::size_t c = 0; c < pdu.numCircuits(); ++c)
            EXPECT_FALSE(pdu.circuitOverSubscription(c, 1e-6));
    });
    sim.runDays(5.0);
}

TEST(Engine, BatterySocStaysInRange)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.0)));
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        EXPECT_GE(r.batterySoc, -1e-9);
        EXPECT_LE(r.batterySoc, 1.0 + 1e-9);
    });
    sim.runDays(7.0);
}

TEST(Engine, MinuteCallbackSeesMonotonicTime)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    MinuteIndex last = -1;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        EXPECT_EQ(r.time, last + 1);
        last = r.time;
    });
    sim.run(500);
    EXPECT_EQ(last, 499);
    EXPECT_EQ(sim.now(), 500);
}

TEST(Engine, GoogleStyleTraceRuns)
{
    auto config = SimulationConfig::paperDefault();
    config.traceKind = TraceKind::GoogleStyle;
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    OnlineStats metered;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        metered.add(r.meteredTotal.value());
    });
    sim.runDays(14.0);
    EXPECT_NEAR(metered.mean(), 6.0, 0.6);
    EXPECT_EQ(sim.metrics().emergencies(), 0u);
}

TEST(Engine, PrototypeScaleRuns)
{
    auto config = SimulationConfig::prototypeScale();
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    sim.runDays(2.0);
    EXPECT_EQ(sim.metrics().emergencies(), 0u);
}

} // namespace
} // namespace ecolo::core

namespace ecolo::core {
namespace {

/**
 * Hand the simulation flat benign traces the way a caller with its own
 * traces does: prefilled in its set-up cache under the key it looks
 * them up by.
 */
void
injectFlatTraces(SimulationConfig &config, double utilization)
{
    config.setupCache = std::make_shared<SetupCache>();
    config.setupCache->traceSet(SetupCache::traceSetKey(config), [&] {
        return SetupCache::TraceSet(
            config.numBenignTenants,
            trace::UtilizationTrace(
                std::vector<double>(kMinutesPerDay, utilization)));
    });
}

TEST(Engine, ExternalTracesAreUsed)
{
    auto config = SimulationConfig::paperDefault();
    // Flat external traces: total benign power should be constant.
    injectFlatTraces(config, 0.5);
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    EXPECT_EQ(config.setupCache->counters().traceHits, 1u);
    OnlineStats benign;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        benign.add(r.benignPower.value());
    });
    sim.run(600);
    // Constant utilization -> zero variance in benign power.
    EXPECT_LT(benign.stddev(), 1e-9);
}

TEST(Engine, ExternalTracesStillScaledToTarget)
{
    auto config = SimulationConfig::paperDefault();
    injectFlatTraces(config, 0.9);
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    OnlineStats metered;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        metered.add(r.meteredTotal.value());
    });
    sim.runDays(1.0);
    EXPECT_NEAR(metered.mean(), 6.0, 0.1); // 75% of 8 kW
}

TEST(Engine, OutageLifecycleRestoresService)
{
    auto config = SimulationConfig::paperDefault();
    config.attackLoad = Kilowatts(3.0);
    config.batterySpec.maxDischargeRate = Kilowatts(3.0);
    config.batterySpec.capacity = KilowattHours(0.5);
    Simulation sim(config, makeOneShotPolicy(config, Kilowatts(7.0), 0));

    MinuteIndex first_outage = -1, restored = -1;
    bool was_down = false;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        if (r.outage) {
            if (first_outage < 0)
                first_outage = r.time;
            was_down = true;
            EXPECT_DOUBLE_EQ(r.meteredTotal.value(), 0.0);
            EXPECT_DOUBLE_EQ(r.actualHeat.value(), 0.0);
        } else if (was_down && restored < 0) {
            restored = r.time;
        }
    });
    sim.runDays(3.0);
    ASSERT_GE(first_outage, 0) << "one-shot never fired";
    ASSERT_GE(restored, 0) << "service never restored";
    // Down for (about) the configured restart window.
    EXPECT_NEAR(static_cast<double>(restored - first_outage),
                static_cast<double>(config.outageRestartMinutes), 2.0);
}

TEST(Engine, AdaptiveCappingKeepsEmergenciesBounded)
{
    auto fixed_config = SimulationConfig::paperDefault();
    auto adaptive_config = SimulationConfig::paperDefault();
    adaptive_config.adaptiveCapping = true;
    Simulation fixed_sim(fixed_config,
                         makeMyopicPolicy(fixed_config, Kilowatts(7.4)));
    Simulation adaptive_sim(
        adaptive_config, makeMyopicPolicy(adaptive_config, Kilowatts(7.4)));
    fixed_sim.runDays(20.0);
    adaptive_sim.runDays(20.0);
    EXPECT_EQ(adaptive_sim.metrics().outages(), 0u);
    // Gentler caps -> lower latency impact during emergencies.
    if (adaptive_sim.metrics().emergencyPerf().count() > 0 &&
        fixed_sim.metrics().emergencyPerf().count() > 0) {
        EXPECT_LE(adaptive_sim.metrics().emergencyPerf().mean(),
                  fixed_sim.metrics().emergencyPerf().mean() + 0.1);
    }
}

} // namespace
} // namespace ecolo::core

namespace ecolo::core {
namespace {

TEST(Engine, PerTenantPerfPopulatedDuringEmergencies)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    sim.runDays(20.0);
    ASSERT_GT(sim.metrics().emergencyMinutes(), 0);
    const auto &per_tenant = sim.metrics().tenantEmergencyPerf();
    ASSERT_EQ(per_tenant.size(), config.numBenignTenants);
    for (const auto &stats : per_tenant) {
        EXPECT_GT(stats.count(), 0u);
        EXPECT_GT(stats.mean(), 1.0); // everyone degrades under capping
    }
}

TEST(Engine, SensorNoiseCausesBaselineEmergencies)
{
    // With noisy operator sensing, occasional spurious emergencies occur
    // even with no attacker (Section VII-B's hiding statistics); the
    // idealized protocol (zero noise) has none.
    auto clean = SimulationConfig::paperDefault();
    auto noisy = SimulationConfig::paperDefault();
    noisy.operatorSensorNoise = 2.5;
    Simulation clean_sim(clean, std::make_unique<StandbyPolicy>());
    Simulation noisy_sim(noisy, std::make_unique<StandbyPolicy>());
    clean_sim.runDays(30.0);
    noisy_sim.runDays(30.0);
    EXPECT_EQ(clean_sim.metrics().emergencies(), 0u);
    EXPECT_GT(noisy_sim.metrics().emergencies(), 0u);
    // Still rare: a background rate, not a thermal runaway.
    EXPECT_LT(noisy_sim.metrics().emergencyFraction(), 0.02);
}

} // namespace
} // namespace ecolo::core

namespace ecolo::core {
namespace {

TEST(Engine, RequestLevelTraceRuns)
{
    auto config = SimulationConfig::paperDefault();
    config.traceKind = TraceKind::RequestLevel;
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    OnlineStats metered;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        metered.add(r.meteredTotal.value());
    });
    sim.runDays(14.0);
    EXPECT_NEAR(metered.mean(), 6.0, 0.6);
    EXPECT_EQ(sim.metrics().emergencies(), 0u);
}

} // namespace
} // namespace ecolo::core
