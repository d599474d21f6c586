/**
 * @file
 * Parameterized property tests: invariants that must hold across whole
 * parameter ranges, not just hand-picked examples.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "battery/battery.hh"
#include "core/engine.hh"
#include "core/operator.hh"
#include "thermal/cooling.hh"

namespace ecolo {
namespace {

// ---------------------------------------------------------------------
// Battery: energy accounting holds for any (capacity, efficiency) combo.
// ---------------------------------------------------------------------

struct BatteryCase
{
    double capacityKwh;
    double chargeEff;
    double dischargeEff;
};

class BatteryProperty : public ::testing::TestWithParam<BatteryCase>
{
};

TEST_P(BatteryProperty, SocAlwaysInRange)
{
    const auto p = GetParam();
    battery::BatterySpec spec;
    spec.capacity = KilowattHours(p.capacityKwh);
    spec.chargeEfficiency = p.chargeEff;
    spec.dischargeEfficiency = p.dischargeEff;
    battery::Battery b(spec, 0.5);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        if (rng.bernoulli(0.5))
            b.charge(Kilowatts(rng.uniform(0.0, 0.5)), minutes(1));
        else
            b.discharge(Kilowatts(rng.uniform(0.0, 2.0)), minutes(1));
        EXPECT_GE(b.soc(), -1e-12);
        EXPECT_LE(b.soc(), 1.0 + 1e-12);
    }
}

TEST_P(BatteryProperty, RoundTripNeverCreatesEnergy)
{
    const auto p = GetParam();
    battery::BatterySpec spec;
    spec.capacity = KilowattHours(p.capacityKwh);
    spec.chargeEfficiency = p.chargeEff;
    spec.dischargeEfficiency = p.dischargeEff;
    battery::Battery b(spec, 0.0);

    // Charge with a known grid energy, then fully discharge: the energy
    // delivered to the load can never exceed grid energy times the
    // round-trip efficiency.
    double grid_kwh = 0.0;
    for (int m = 0; m < 120 && !b.full(); ++m)
        grid_kwh += b.charge(Kilowatts(0.2), minutes(1)).value() / 60.0;
    double delivered_kwh = 0.0;
    for (int m = 0; m < 600 && !b.empty(); ++m)
        delivered_kwh +=
            b.discharge(Kilowatts(1.0), minutes(1)).value() / 60.0;
    EXPECT_LE(delivered_kwh,
              grid_kwh * p.chargeEff * p.dischargeEff + 1e-9);
    EXPECT_GT(delivered_kwh, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatteryProperty,
    ::testing::Values(BatteryCase{0.1, 1.0, 1.0},
                      BatteryCase{0.2, 0.9, 0.95},
                      BatteryCase{0.2, 0.8, 0.9},
                      BatteryCase{0.4, 0.95, 0.99},
                      BatteryCase{0.05, 0.7, 0.7}));

// ---------------------------------------------------------------------
// Cooling: physical sanity across overload levels.
// ---------------------------------------------------------------------

class CoolingProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(CoolingProperty, NeverDropsBelowSetPoint)
{
    thermal::CoolingSystem cooling(thermal::CoolingParams{});
    Rng rng(11);
    for (int m = 0; m < 2000; ++m) {
        cooling.step(Kilowatts(rng.uniform(0.0, GetParam())), minutes(1));
        EXPECT_GE(cooling.supplyTemperature().value(), 27.0 - 1e-12);
    }
}

TEST_P(CoolingProperty, MoreOverloadIsNeverSlower)
{
    thermal::CoolingSystem cooling(thermal::CoolingParams{});
    const double overload = GetParam();
    const double t1 = cooling
        .timeToReach(Celsius(32.0), Kilowatts(overload), Celsius(27.0))
        .value();
    const double t2 = cooling
        .timeToReach(Celsius(32.0), Kilowatts(overload + 0.5),
                     Celsius(27.0))
        .value();
    EXPECT_LE(t2, t1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoolingProperty,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

// ---------------------------------------------------------------------
// Engine invariants across seeds: the operator's accounting books must
// balance no matter the randomness.
// ---------------------------------------------------------------------

class EngineProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineProperty, MeteringBooksBalance)
{
    auto config = core::SimulationConfig::paperDefault();
    config.seed = GetParam();
    core::Simulation sim(config,
                         core::makeMyopicPolicy(config, Kilowatts(7.3)));
    sim.setMinuteCallback([&](const core::MinuteRecord &r) {
        // Metered power never exceeds the PDU capacity.
        EXPECT_LE(r.meteredTotal.value(),
                  config.capacity.value() + 1e-6);
        // Heat = metered + battery discharge - battery charging draw;
        // during an attack the gap equals the battery power exactly.
        if (r.action == core::AttackAction::Attack) {
            EXPECT_NEAR(r.actualHeat.value(),
                        r.meteredTotal.value() +
                            r.attackBatteryPower.value(),
                        1e-6);
        }
        // SoC bounded.
        EXPECT_GE(r.batterySoc, -1e-9);
        EXPECT_LE(r.batterySoc, 1.0 + 1e-9);
        // Per-server bookkeeping sums to the totals.
        Kilowatts heat_sum(0.0);
        for (Kilowatts h : sim.lastServerHeat())
            heat_sum += h;
        EXPECT_NEAR(heat_sum.value(), r.actualHeat.value(), 1e-6);
    });
    sim.runDays(4.0);
}

TEST_P(EngineProperty, EmergencyAccountingConsistent)
{
    auto config = core::SimulationConfig::paperDefault();
    config.seed = GetParam();
    core::Simulation sim(config,
                         core::makeMyopicPolicy(config, Kilowatts(7.3)));
    long capped_minutes = 0;
    sim.setMinuteCallback([&](const core::MinuteRecord &r) {
        capped_minutes += r.cappingActive;
    });
    sim.runDays(20.0);
    EXPECT_EQ(capped_minutes, sim.metrics().emergencyMinutes());
    // Each emergency caps for at most the configured window.
    if (sim.metrics().emergencies() > 0) {
        EXPECT_LE(sim.metrics().emergencyMinutes(),
                  static_cast<long>(sim.metrics().emergencies()) *
                      config.cappingMinutes);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(1u, 42u, 1337u, 90210u,
                                           0xdeadbeefu));

// ---------------------------------------------------------------------
// Heat matrix: superposition (linearity) for arbitrary power splits.
// ---------------------------------------------------------------------

class MatrixProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MatrixProperty, SuperpositionHolds)
{
    power::DataCenterLayout layout;
    auto matrix = thermal::HeatDistributionMatrix::analyticDefault(layout);
    thermal::MatrixThermalModel sum_model(matrix);
    thermal::MatrixThermalModel a_model(matrix);
    thermal::MatrixThermalModel b_model(matrix);

    Rng rng(GetParam());
    for (int m = 0; m < 12; ++m) {
        std::vector<Kilowatts> a(40), b(40), s(40);
        for (std::size_t j = 0; j < 40; ++j) {
            a[j] = Kilowatts(rng.uniform(0.0, 0.3));
            b[j] = Kilowatts(rng.uniform(0.0, 0.3));
            s[j] = a[j] + b[j];
        }
        a_model.pushPowers(a);
        b_model.pushPowers(b);
        sum_model.pushPowers(s);
    }
    std::vector<double> sum_rises, a_rises, b_rises;
    sum_model.computeAllRises(sum_rises);
    a_model.computeAllRises(a_rises);
    b_model.computeAllRises(b_rises);
    for (std::size_t i = 0; i < 40; ++i)
        EXPECT_NEAR(sum_rises[i], a_rises[i] + b_rises[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixProperty,
                         ::testing::Values(3u, 17u, 99u));

} // namespace
} // namespace ecolo

namespace ecolo {
namespace {

// ---------------------------------------------------------------------
// Operator protocol: structural guarantees for any threshold settings.
// ---------------------------------------------------------------------

struct ProtocolCase
{
    double emergencyC;
    long sustain;
    long capping;
};

class OperatorProperty : public ::testing::TestWithParam<ProtocolCase>
{
};

TEST_P(OperatorProperty, CappingWindowsNeverExceedConfigured)
{
    const auto p = GetParam();
    core::ColoOperator::Params params;
    params.emergencyThreshold = Celsius(p.emergencyC);
    params.sustainMinutes = p.sustain;
    params.cappingMinutes = p.capping;
    core::ColoOperator op(params);

    Rng rng(5);
    long consecutive_capped = 0;
    for (int m = 0; m < 20000; ++m) {
        // Random temperature walk spanning both sides of the threshold.
        const auto cmd = op.observeMinute(
            Celsius(rng.uniform(p.emergencyC - 4.0, p.emergencyC + 6.0)));
        if (cmd.capServers)
            ++consecutive_capped;
        else
            consecutive_capped = 0;
        EXPECT_LE(consecutive_capped, p.capping);
    }
}

TEST_P(OperatorProperty, EmergencyNeedsSustainedViolation)
{
    const auto p = GetParam();
    core::ColoOperator::Params params;
    params.emergencyThreshold = Celsius(p.emergencyC);
    params.sustainMinutes = p.sustain;
    params.cappingMinutes = p.capping;
    core::ColoOperator op(params);

    // Alternate hot/cold: with sustain >= 2 the counter never completes
    // and no emergency is declared; with sustain == 1 every hot minute
    // declares one.
    for (int m = 0; m < 1000; ++m) {
        op.observeMinute(Celsius(m % 2 == 0 ? p.emergencyC + 2.0
                                            : p.emergencyC - 2.0));
    }
    if (p.sustain >= 2)
        EXPECT_EQ(op.emergenciesDeclared(), 0u);
    else
        EXPECT_GT(op.emergenciesDeclared(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperatorProperty,
    ::testing::Values(ProtocolCase{32.0, 2, 5}, ProtocolCase{30.0, 1, 5},
                      ProtocolCase{32.0, 3, 10},
                      ProtocolCase{35.0, 2, 3}));

// ---------------------------------------------------------------------
// Policies: protocol compliance under fuzzed observations.
// ---------------------------------------------------------------------

class PolicyComplianceProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PolicyComplianceProperty, NoRepeatedAttackerAttacksWhileCapped)
{
    const auto config = core::SimulationConfig::paperDefault();
    std::vector<std::unique_ptr<core::AttackPolicy>> policies;
    policies.push_back(std::make_unique<core::StandbyPolicy>());
    policies.push_back(core::makeRandomPolicy(config, 0.5));
    policies.push_back(core::makeMyopicPolicy(config, Kilowatts(6.0)));
    policies.push_back(core::makeForesightedPolicy(config, 14.0));

    Rng rng(GetParam());
    for (auto &policy : policies) {
        for (int i = 0; i < 2000; ++i) {
            core::AttackObservation obs;
            obs.batterySoc = rng.uniform();
            obs.estimatedLoad = Kilowatts(rng.uniform(4.0, 8.5));
            obs.inletTemperature = Celsius(rng.uniform(27.0, 40.0));
            obs.cappingActive = rng.bernoulli(0.3);
            obs.outage = rng.bernoulli(0.05);
            const auto action = policy->decide(obs);
            if (obs.cappingActive || obs.outage)
                EXPECT_NE(action, core::AttackAction::Attack)
                    << policy->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyComplianceProperty,
                         ::testing::Values(2u, 77u, 991u));

} // namespace
} // namespace ecolo
