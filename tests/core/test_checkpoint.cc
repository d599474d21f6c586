#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "core/operator.hh"
#include "core/version.hh"
#include "util/state_io.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

SimulationConfig
smallConfig()
{
    auto config = SimulationConfig::paperDefault();
    config.seed = 1234;
    return config;
}

std::vector<double>
tailTrajectory(Simulation &sim, MinuteIndex minutes)
{
    std::vector<double> values;
    sim.setMinuteCallback([&](const MinuteRecord &r) {
        values.push_back(r.maxInlet.value());
        values.push_back(r.meteredTotal.value());
        values.push_back(r.batterySoc);
    });
    sim.run(minutes);
    return values;
}

TEST(Checkpoint, SimulationRestoreContinuesBitIdentically)
{
    const auto config = smallConfig();

    // Uninterrupted reference run: 2 days, record the second day.
    Simulation reference(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    reference.run(kMinutesPerDay);
    const auto expected = tailTrajectory(reference, kMinutesPerDay);

    // Interrupted run: 1 day, checkpoint, "crash", restore, second day.
    std::stringstream checkpoint;
    {
        Simulation first(config, makeMyopicPolicy(config, Kilowatts(7.4)));
        first.run(kMinutesPerDay);
        util::StateWriter writer(checkpoint);
        writer.header();
        first.saveState(writer);
        ASSERT_TRUE(writer.good());
    }
    Simulation resumed(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    util::StateReader reader(checkpoint);
    reader.header();
    resumed.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().error().describe();
    EXPECT_EQ(resumed.now(), kMinutesPerDay);

    const auto actual = tailTrajectory(resumed, kMinutesPerDay);
    EXPECT_EQ(actual, expected);
}

TEST(Checkpoint, MetricsSurviveTheRoundTrip)
{
    const auto config = smallConfig();
    Simulation reference(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    reference.run(2 * kMinutesPerDay);

    std::stringstream checkpoint;
    {
        Simulation first(config, makeMyopicPolicy(config, Kilowatts(7.4)));
        first.run(kMinutesPerDay);
        util::StateWriter writer(checkpoint);
        writer.header();
        first.saveState(writer);
    }
    Simulation resumed(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    util::StateReader reader(checkpoint);
    reader.header();
    resumed.loadState(reader);
    ASSERT_TRUE(reader.ok());
    resumed.run(kMinutesPerDay);

    const auto &a = reference.metrics();
    const auto &b = resumed.metrics();
    EXPECT_EQ(a.emergencies(), b.emergencies());
    EXPECT_EQ(a.outages(), b.outages());
    EXPECT_EQ(a.attackMinutes(), b.attackMinutes());
    EXPECT_EQ(a.degradedMinutes(), b.degradedMinutes());
    EXPECT_EQ(a.inletRise().mean(), b.inletRise().mean());
    EXPECT_EQ(a.maxInlet().max(), b.maxInlet().max());
}

TEST(Checkpoint, RestoreIntoWrongConfigFails)
{
    const auto config = smallConfig();
    std::stringstream checkpoint;
    {
        Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
        sim.run(100);
        util::StateWriter writer(checkpoint);
        writer.header();
        sim.saveState(writer);
    }

    auto other = smallConfig();
    other.layout.serversPerRack = 10; // 20 servers instead of 40
    other.attackerNumServers = 2;
    Simulation resumed(other, makeMyopicPolicy(other, Kilowatts(7.4)));
    util::StateReader reader(checkpoint);
    reader.header();
    resumed.loadState(reader);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().error().code, util::ErrorCode::StateError);
}

/** The state bytes of a default myopic run stopped after `minutes`. */
std::string
savedStateAfter(MinuteIndex minutes)
{
    const auto config = smallConfig();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    sim.run(minutes);
    std::stringstream checkpoint;
    util::StateWriter writer(checkpoint);
    writer.header();
    sim.saveState(writer);
    return checkpoint.str();
}

/** Offset of the one "OPER" section tag in `bytes`. */
std::size_t
operatorSection(const std::string &bytes)
{
    const std::size_t at = bytes.find("OPER");
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(bytes.rfind("OPER"), at) << "ambiguous OPER tag";
    return at;
}

/** Load `bytes` into a fresh default simulation; the reader's status. */
util::Result<void>
loadInto(const std::string &bytes)
{
    const auto config = smallConfig();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    std::stringstream state(bytes);
    util::StateReader reader(state);
    reader.header();
    sim.loadState(reader);
    return reader.status();
}

TEST(Checkpoint, ForgedEmergencyCountFailsFast)
{
    // OPER: tag, u32 state, i64 sustain/capping/restart, then the u64
    // emergency count. A count the engine never saw used to be caught
    // up one declaration per loop turn: 2^62 turns, a hang.
    std::string bytes = savedStateAfter(200);
    const std::size_t count_at = operatorSection(bytes) + 4 + 4 + 3 * 8;
    const std::uint64_t forged = std::uint64_t{1} << 62;
    std::memcpy(&bytes[count_at], &forged, sizeof(forged));

    const auto start = std::chrono::steady_clock::now();
    const util::Result<void> loaded = loadInto(bytes);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, util::ErrorCode::StateError);
    EXPECT_LT(seconds, 1.0);
}

TEST(Checkpoint, OutOfRangeOperatorStateRejected)
{
    const std::string bytes = savedStateAfter(200);
    const std::size_t oper = operatorSection(bytes);
    struct Patch
    {
        std::size_t offset;
        std::uint64_t value;
        std::size_t width;
    };
    const std::int64_t negative = -5;
    std::uint64_t negative_bits;
    std::memcpy(&negative_bits, &negative, sizeof(negative));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t nan_bits;
    std::memcpy(&nan_bits, &nan, sizeof(nan));
    // Offsets after the tag: state u32 @4, sustain @8, capping left @16,
    // restart left @24, counts @32/@40, cap level @48, minutes @56..80,
    // last good inlet @88.
    const Patch patches[] = {
        {oper + 4, 7, 4},             // no such OperatorState
        {oper + 8, negative_bits, 8}, // sustain counter
        {oper + 16, negative_bits, 8}, // capping countdown below -1
        {oper + 56, negative_bits, 8}, // emergency minutes
        {oper + 48, nan_bits, 8},      // cap level
        {oper + 88, nan_bits, 8},      // last good inlet
    };
    for (const Patch &patch : patches) {
        std::string forged = bytes;
        std::memcpy(&forged[patch.offset], &patch.value, patch.width);
        const util::Result<void> loaded = loadInto(forged);
        ASSERT_FALSE(loaded.ok()) << "offset " << patch.offset - oper;
        EXPECT_EQ(loaded.error().code, util::ErrorCode::StateError);
    }
    EXPECT_TRUE(loadInto(bytes).ok());
}

TEST(Checkpoint, OneMinuteCappingCountdownRoundTrips)
{
    // With a one-minute capping window the countdown rests at -1 after
    // the emergency ends; that state is valid and must load.
    ColoOperator::Params params{Celsius(32.0), 1, 1, Celsius(45.0), 60};
    ColoOperator op(params);
    op.observeMinute(Celsius(33.0)); // declared
    op.observeMinute(Celsius(28.0)); // window over
    ASSERT_EQ(op.emergenciesDeclared(), 1u);
    ASSERT_EQ(op.state(), OperatorState::Normal);
    std::stringstream checkpoint;
    util::StateWriter writer(checkpoint);
    op.saveState(writer);

    ColoOperator restored(params);
    util::StateReader reader(checkpoint);
    restored.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().error().describe();
    EXPECT_EQ(restored.emergenciesDeclared(), 1u);
}

class SimCheckpointFileTest : public ::testing::Test
{
  protected:
    // Suffix with the test name: ctest schedules each test as its own
    // process, so a shared fixed path races with a sibling's TearDown
    // under -j.
    std::string path_ =
        ::testing::TempDir() + "edgetherm_sim_checkpoint_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin";

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SimCheckpointFileTest, SaveAndLoadHelpersRoundTrip)
{
    const auto config = smallConfig();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    sim.run(500);
    const auto saved = saveSimulationCheckpoint(path_, sim, "myopic");
    ASSERT_TRUE(saved.ok()) << saved.error().describe();

    Simulation resumed(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    const auto loaded =
        loadSimulationCheckpoint(path_, resumed, "myopic");
    ASSERT_TRUE(loaded.ok()) << loaded.error().describe();
    EXPECT_EQ(resumed.now(), 500);
}

TEST_F(SimCheckpointFileTest, SchemaVersionFlipInvalidatesCheckpoint)
{
    // Satellite regression: a checkpoint stamped with a different
    // engine schema version must be refused on load -- resuming a
    // trajectory across behaviorally different builds would silently
    // produce garbage continuations.
    const auto config = smallConfig();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    sim.run(100);
    const auto saved = saveSimulationCheckpoint(
        path_, sim, "myopic", kEngineSchemaVersion + 1);
    ASSERT_TRUE(saved.ok()) << saved.error().describe();

    Simulation resumed(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    const auto loaded =
        loadSimulationCheckpoint(path_, resumed, "myopic");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, util::ErrorCode::StateError);
    EXPECT_NE(loaded.error().message.find("schema version"),
              std::string::npos);
}

TEST_F(SimCheckpointFileTest, PolicyNameMismatchRejected)
{
    const auto config = smallConfig();
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    sim.run(100);
    ASSERT_TRUE(saveSimulationCheckpoint(path_, sim, "myopic").ok());

    Simulation resumed(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    const auto loaded =
        loadSimulationCheckpoint(path_, resumed, "standby");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, util::ErrorCode::StateError);
}

} // namespace
