#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/engine.hh"
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
