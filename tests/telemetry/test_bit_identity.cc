/**
 * @file
 * The telemetry cost contract's strongest clause: a run with every sink
 * armed is bit-identical to a run with telemetry off. Compared over the
 * complete serialized simulation state, not just summary metrics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/engine.hh"
#include "stat_reader.hh"
#include "telemetry/telemetry.hh"
#include "util/state_io.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

std::string
runAndSerialize(double days)
{
    auto config = SimulationConfig::paperDefault();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.2)));
    sim.runDays(days);
    std::ostringstream os;
    util::StateWriter writer(os);
    sim.saveState(writer);
    EXPECT_TRUE(writer.good());
    return os.str();
}

TEST(TelemetryBitIdentity, EnabledRunMatchesDisabledRunExactly)
{
    constexpr double kDays = 2.0;

    telemetry::resetForTest();
    const std::string baseline = runAndSerialize(kDays);
    ASSERT_FALSE(baseline.empty());
    // Off means off: the run must not have registered anything.
    EXPECT_EQ(telemetry::registry().size(), 0u);
    EXPECT_EQ(telemetry::events().size(), 0u);

    telemetry::resetForTest();
    telemetry::setEnabled(true);
    telemetry::trace().begin();
    const std::string instrumented = runAndSerialize(kDays);
    telemetry::trace().end();

    // The instrumented run really collected (unless compiled out): every
    // simulated minute was counted and every slot phase timed.
    if (telemetry::kCompiledIn) {
        const auto &reg = telemetry::registry();
        const double minutes = kDays * kMinutesPerDay;
        EXPECT_EQ(test::readStat(reg, "engine.minutes"), minutes);
        EXPECT_EQ(test::readStat(reg, "engine.phase.slots"), minutes);
        EXPECT_GT(test::readStat(reg, "engine.phase.thermal_ns"), 0.0);
        EXPECT_GT(telemetry::trace().eventCount(), 0u);
    }

    // And changed nothing: byte-for-byte identical full state.
    EXPECT_EQ(baseline.size(), instrumented.size());
    EXPECT_TRUE(baseline == instrumented)
        << "telemetry perturbed the simulation state";

    // The trace holds no per-slot spans: a run twice as long writes as
    // many events.
    if (telemetry::kCompiledIn) {
        const std::size_t two_day_events = telemetry::trace().eventCount();
        telemetry::trace().begin();
        (void)runAndSerialize(kDays / 2.0);
        telemetry::trace().end();
        EXPECT_EQ(telemetry::trace().eventCount(), two_day_events);
    }

    telemetry::resetForTest();
}

TEST(TelemetryBitIdentity, TelemetryStateIsNotCheckpointed)
{
    // A checkpoint taken mid-run with telemetry on must restore into a
    // telemetry-off process bit-identically: nothing telemetry-ish may
    // leak into the state stream.
    auto config = SimulationConfig::paperDefault();

    telemetry::resetForTest();
    telemetry::setEnabled(true);
    Simulation instrumented(config,
                            makeMyopicPolicy(config, Kilowatts(7.2)));
    instrumented.runDays(1.0);
    std::ostringstream os_on;
    util::StateWriter writer_on(os_on);
    instrumented.saveState(writer_on);

    telemetry::resetForTest(); // telemetry now off
    Simulation restored(config, makeMyopicPolicy(config, Kilowatts(7.2)));
    std::istringstream is(os_on.str());
    util::StateReader reader(is);
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok());

    // Both continue identically to day 2.
    Simulation reference(config, makeMyopicPolicy(config, Kilowatts(7.2)));
    reference.runDays(2.0);
    restored.runDays(1.0);

    std::ostringstream os_a;
    std::ostringstream os_b;
    util::StateWriter wa(os_a);
    util::StateWriter wb(os_b);
    restored.saveState(wa);
    reference.saveState(wb);
    EXPECT_TRUE(os_a.str() == os_b.str())
        << "restored-and-continued state diverged from the straight run";
}

} // namespace
