/** @file Integration tests for the coordinated fleet attack. */

#include <gtest/gtest.h>

#include "core/fleet.hh"
#include "util/parallel.hh"

namespace ecolo::core {
namespace {

SimulationConfig
strikeConfig()
{
    auto config = SimulationConfig::paperDefault();
    config.attackLoad = Kilowatts(3.0);
    config.batterySpec.maxDischargeRate = Kilowatts(3.0);
    config.batterySpec.capacity = KilowattHours(0.5);
    return config;
}

TEST(Fleet, CoordinatedStrikeTakesDownMultipleSites)
{
    // Arm 4 sites for the afternoon peak of day 1; a permissive gate
    // (6.5 kW) lets every site fire near the strike minute.
    const MinuteIndex strike = kMinutesPerDay + 14 * 60;
    FleetSimulation fleet(strikeConfig(), 4, strike, Kilowatts(6.5));
    fleet.run(2 * kMinutesPerDay);

    const FleetResult &r = fleet.result();
    EXPECT_EQ(r.numSites, 4u);
    EXPECT_GE(r.sitesWithOutage, 3u);
    EXPECT_GE(r.maxSimultaneousOutages, 2u);
    EXPECT_GT(r.wideAreaInterruptionMinutes, 0);
    EXPECT_GE(r.firstOutageDelay, 0);
    EXPECT_LT(r.firstOutageDelay, 120); // strikes land near the arm time
}

TEST(Fleet, SitesAreIndependent)
{
    // Different derived seeds => different traces => different thermal
    // histories (outage *duration* is fixed by the restart window, so
    // compare a trace-dependent continuous quantity instead).
    const MinuteIndex strike = kMinutesPerDay + 14 * 60;
    FleetSimulation fleet(strikeConfig(), 3, strike, Kilowatts(6.8));
    fleet.run(2 * kMinutesPerDay);
    // (the hottest inlet saturates at the same physical ceiling during
    // an outage run, so compare the mean rise instead)
    const double rise0 = fleet.site(0).metrics().inletRise().mean();
    const double rise1 = fleet.site(1).metrics().inletRise().mean();
    const double rise2 = fleet.site(2).metrics().inletRise().mean();
    EXPECT_FALSE(rise0 == rise1 && rise1 == rise2);
}

TEST(Fleet, NoStrikeBeforeArmTime)
{
    const MinuteIndex strike = 5 * kMinutesPerDay;
    FleetSimulation fleet(strikeConfig(), 2, strike, Kilowatts(6.5));
    fleet.run(kMinutesPerDay); // well before the arm time
    EXPECT_EQ(fleet.result().sitesWithOutage, 0u);
}

TEST(Fleet, ResultAccumulatesAcrossRuns)
{
    // Strike at the day-1 afternoon peak, split across two run() calls
    // that straddle it.
    const MinuteIndex strike = kMinutesPerDay + 14 * 60;
    FleetSimulation fleet(strikeConfig(), 2, strike, Kilowatts(6.5));
    fleet.run(strike - 60);          // up to just before the strike
    EXPECT_EQ(fleet.result().sitesWithOutage, 0u);
    fleet.run(6 * 60);               // through the strike window
    EXPECT_GE(fleet.result().sitesWithOutage, 1u);
}

TEST(FleetParallel, BitIdenticalToSerial)
{
    // The threaded run must reproduce the serial sweep exactly: same
    // aggregate result and the same per-site trajectories, bit for bit.
    const MinuteIndex strike = kMinutesPerDay + 14 * 60;

    util::ThreadPool::setGlobalThreads(1);
    FleetSimulation serial(strikeConfig(), 4, strike, Kilowatts(6.5));
    serial.run(2 * kMinutesPerDay);
    util::ThreadPool::setGlobalThreads(4);
    FleetSimulation parallel(strikeConfig(), 4, strike, Kilowatts(6.5));
    // Split across two calls to also cover mid-run state carry-over.
    parallel.run(kMinutesPerDay);
    parallel.run(kMinutesPerDay);
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());

    const FleetResult &a = serial.result();
    const FleetResult &b = parallel.result();
    EXPECT_EQ(a.numSites, b.numSites);
    EXPECT_EQ(a.sitesWithOutage, b.sitesWithOutage);
    EXPECT_EQ(a.maxSimultaneousOutages, b.maxSimultaneousOutages);
    EXPECT_EQ(a.wideAreaInterruptionMinutes, b.wideAreaInterruptionMinutes);
    EXPECT_EQ(a.firstOutageDelay, b.firstOutageDelay);
    ASSERT_EQ(a.siteOutageMinutes.size(), b.siteOutageMinutes.size());
    for (std::size_t s = 0; s < a.siteOutageMinutes.size(); ++s) {
        EXPECT_EQ(a.siteOutageMinutes[s], b.siteOutageMinutes[s]);
        EXPECT_DOUBLE_EQ(serial.site(s).metrics().inletRise().mean(),
                         parallel.site(s).metrics().inletRise().mean());
        EXPECT_DOUBLE_EQ(serial.site(s).metrics().inletRise().max(),
                         parallel.site(s).metrics().inletRise().max());
    }
}

TEST(FleetDeathTest, EmptyFleetRejected)
{
    EXPECT_DEATH(FleetSimulation(strikeConfig(), 0, 0, Kilowatts(6.5)),
                 "at least one site");
}

} // namespace
} // namespace ecolo::core
