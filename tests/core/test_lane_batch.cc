/**
 * @file
 * Batch-runner equivalence properties: a simulation advanced through
 * LaneBatchRunner must be *byte-identical* -- full saveState snapshot,
 * not just summary metrics -- to the same simulation advanced by its
 * own scalar run(), across a shared setup cache, fault-driven
 * divergence, degraded-mode transitions, heterogeneous horizons,
 * chunked runs, cancellation and checkpoint round-trips; see
 * docs/performance.md ("Fleet and campaign execution").
 *
 * The *Parallel suite runs under the ThreadSanitizer CI job
 * (ctest -R 'Parallel'): members share setup-cache artifacts across
 * pool threads.
 */

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/lane_batch.hh"
#include "core/setup_cache.hh"
#include "faults/schedule.hh"
#include "trace/generators.hh"
#include "util/state_io.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

/** Full mutable state as bytes (the strictest equality available). */
std::string
snapshot(const Simulation &sim)
{
    std::ostringstream os;
    util::StateWriter writer(os);
    sim.saveState(writer);
    return os.str();
}

struct MemberSpec
{
    const char *policy;
    double param;
    double batteryKwh;
    MinuteIndex horizon;
    bool faults;
};

SimulationConfig
memberConfig(const MemberSpec &spec,
             const std::shared_ptr<SetupCache> &cache)
{
    auto config = SimulationConfig::paperDefault();
    config.seed = 1234; // all members share one cached trace set
    config.batterySpec.capacity = KilowattHours(spec.batteryKwh);
    if (spec.faults) {
        // A cooling loss deep enough to push the operator through
        // degraded tiers (preventive capping), plus a
        // side-channel dropout overlapping it.
        EXPECT_TRUE(config.faultSchedule
                        .add({faults::FaultKind::CracCapacityLoss,
                              /*start=*/200, /*duration=*/240,
                              /*magnitude=*/0.45, /*count=*/0})
                        .ok());
        EXPECT_TRUE(config.faultSchedule
                        .add({faults::FaultKind::SideChannelDropout,
                              /*start=*/260, /*duration=*/120,
                              /*magnitude=*/0.0, /*count=*/0})
                        .ok());
    }
    config.setupCache = cache;
    return config;
}

std::unique_ptr<AttackPolicy>
memberPolicy(const MemberSpec &spec, const SimulationConfig &config)
{
    const std::string name = spec.policy;
    if (name == "random")
        return makeRandomPolicy(config, spec.param);
    if (name == "oneshot")
        return makeOneShotPolicy(config, Kilowatts(spec.param), 0);
    return makeMyopicPolicy(config, Kilowatts(spec.param));
}

TEST(LaneBatch, MixedCampaignByteIdenticalToScalar)
{
    // Policies that attack at different times, different battery sizes,
    // two members with active fault schedules, and heterogeneous
    // horizons.
    const MemberSpec specs[] = {
        {"myopic", 7.4, 0.2, 1440, false},
        {"myopic", 7.0, 0.3, 720, false},
        {"random", 0.08, 0.2, 1440, true},
        {"oneshot", 7.0, 0.25, 1080, false},
        {"myopic", 7.8, 0.2, 1440, true},
    };
    auto cache = std::make_shared<SetupCache>();

    std::vector<std::unique_ptr<Simulation>> lane_sims;
    std::vector<std::unique_ptr<Simulation>> scalar_sims;
    for (const auto &spec : specs) {
        const auto config = memberConfig(spec, cache);
        lane_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
        scalar_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
    }

    LaneBatchRunner runner;
    for (std::size_t i = 0; i < lane_sims.size(); ++i)
        runner.add(*lane_sims[i], specs[i].horizon);
    runner.runAll();
    ASSERT_TRUE(runner.finished());

    for (std::size_t i = 0; i < scalar_sims.size(); ++i) {
        scalar_sims[i]->run(specs[i].horizon);
        EXPECT_EQ(lane_sims[i]->now(), specs[i].horizon);
        EXPECT_EQ(snapshot(*lane_sims[i]), snapshot(*scalar_sims[i]))
            << "batched member " << i
            << " diverged from its scalar run";
    }
}

TEST(LaneBatch, ChunkedRunsCheckpointCompatibleWithScalar)
{
    const MemberSpec specs[] = {
        {"myopic", 7.4, 0.2, 600, false},
        {"random", 0.08, 0.2, 600, true},
        {"myopic", 7.1, 0.2, 480, false},
    };
    auto cache = std::make_shared<SetupCache>();

    std::vector<std::unique_ptr<Simulation>> lane_sims;
    std::vector<std::unique_ptr<Simulation>> scalar_sims;
    for (const auto &spec : specs) {
        const auto config = memberConfig(spec, cache);
        lane_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
        scalar_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
    }

    LaneBatchRunner runner;
    for (std::size_t i = 0; i < lane_sims.size(); ++i)
        runner.add(*lane_sims[i], specs[i].horizon);

    // Advance in ragged chunks; at every boundary each member's full
    // state matches the scalar reference advanced by the same amount.
    std::string mid_state;
    const MinuteIndex chunk = 97;
    MinuteIndex advanced = 0;
    while (!runner.finished()) {
        runner.run(chunk);
        advanced += chunk;
        for (std::size_t i = 0; i < scalar_sims.size(); ++i) {
            const MinuteIndex target =
                std::min(advanced, specs[i].horizon);
            scalar_sims[i]->run(target - scalar_sims[i]->now());
            EXPECT_EQ(snapshot(*lane_sims[i]), snapshot(*scalar_sims[i]))
                << "member " << i << " diverged after " << advanced
                << " chunked minutes";
        }
        if (mid_state.empty())
            mid_state = snapshot(*lane_sims[1]);
    }

    // Checkpoint round-trip from a mid-run boundary: restore into a
    // fresh simulation, continue scalar, and land on the same bytes as
    // the batched run.
    const auto config = memberConfig(specs[1], cache);
    Simulation resumed(config, memberPolicy(specs[1], config));
    std::istringstream is(mid_state);
    util::StateReader reader(is);
    resumed.loadState(reader);
    ASSERT_TRUE(reader.ok());
    resumed.run(specs[1].horizon - resumed.now());
    EXPECT_EQ(snapshot(resumed), snapshot(*lane_sims[1]));
}

TEST(LaneBatch, CancelledLaneStopsWhereRunStops)
{
    // Four members of one scenario; member 2's cancel check fires at
    // minute 500. It stops at the same minute with the same state as
    // its solo run, is retired, and its neighbours finish as if it had
    // never been there.
    constexpr MinuteIndex kHorizon = 1440;
    constexpr MinuteIndex kCancelAt = 500;
    constexpr std::size_t kCancelled = 2;
    const MemberSpec specs[] = {
        {"myopic", 7.4, 0.2, kHorizon, false},
        {"myopic", 7.0, 0.2, kHorizon, false},
        {"myopic", 7.8, 0.2, kHorizon, false},
        {"myopic", 7.2, 0.2, kHorizon, false},
    };
    auto cache = std::make_shared<SetupCache>();

    std::vector<std::unique_ptr<Simulation>> lane_sims;
    std::vector<std::unique_ptr<Simulation>> scalar_sims;
    for (const auto &spec : specs) {
        const auto config = memberConfig(spec, cache);
        lane_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
        scalar_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
    }
    for (auto *sims : {&lane_sims, &scalar_sims}) {
        Simulation &sim = *(*sims)[kCancelled];
        sim.setCancelCheck([&sim] { return sim.now() >= kCancelAt; });
    }

    LaneBatchRunner runner;
    for (std::size_t i = 0; i < lane_sims.size(); ++i)
        runner.add(*lane_sims[i], specs[i].horizon);
    runner.runAll();
    ASSERT_TRUE(runner.finished());

    for (std::size_t i = 0; i < scalar_sims.size(); ++i) {
        scalar_sims[i]->run(specs[i].horizon);
        EXPECT_EQ(lane_sims[i]->now(),
                  i == kCancelled ? kCancelAt : kHorizon);
        EXPECT_EQ(lane_sims[i]->now(), scalar_sims[i]->now());
        EXPECT_EQ(snapshot(*lane_sims[i]), snapshot(*scalar_sims[i]))
            << "member " << i << " diverged from its solo run";
    }
}

TEST(LaneBatchParallel, MultiGroupCampaignMatchesScalar)
{
    // More members than threads, dispatched over the thread pool (this
    // suite runs under the ThreadSanitizer CI job). Heterogeneous
    // horizons keep members finishing at different slots.
    auto cache = std::make_shared<SetupCache>();
    std::vector<MemberSpec> specs;
    for (int i = 0; i < 10; ++i) {
        specs.push_back({"myopic", 6.8 + 0.1 * i, 0.2,
                         i % 2 == 0 ? MinuteIndex(240) : MinuteIndex(360),
                         i == 3});
    }

    std::vector<std::unique_ptr<Simulation>> lane_sims;
    for (const auto &spec : specs) {
        const auto config = memberConfig(spec, cache);
        lane_sims.push_back(std::make_unique<Simulation>(
            config, memberPolicy(spec, config)));
    }

    LaneBatchRunner runner;
    for (std::size_t i = 0; i < lane_sims.size(); ++i)
        runner.add(*lane_sims[i], specs[i].horizon);
    runner.runAll();
    ASSERT_TRUE(runner.finished());

    // Spot-check members against scalar references.
    for (std::size_t i : {std::size_t(0), std::size_t(3),
                          std::size_t(9)}) {
        const auto config = memberConfig(specs[i], cache);
        Simulation reference(config, memberPolicy(specs[i], config));
        reference.run(specs[i].horizon);
        EXPECT_EQ(snapshot(*lane_sims[i]), snapshot(reference))
            << "parallel member " << i;
    }
}

TEST(LaneBatchParallel, SetupCacheIsBitIdenticalAccelerator)
{
    // A member built through a shared cache must behave exactly like
    // one built alone (on its private cache): same traces (the rng fork
    // is consumed either way), same scale factor, same thermal
    // artifacts -- for every generated trace kind.
    for (TraceKind kind : {TraceKind::Diurnal, TraceKind::GoogleStyle,
                           TraceKind::RequestLevel}) {
        SCOPED_TRACE(static_cast<int>(kind));
        auto config = SimulationConfig::paperDefault();
        config.seed = 4242;
        config.traceKind = kind;
        Simulation plain(config, makeMyopicPolicy(config, Kilowatts(7.4)));

        config.setupCache = std::make_shared<SetupCache>();
        Simulation cached(config,
                          makeMyopicPolicy(config, Kilowatts(7.4)));
        Simulation cached2(config,
                           makeMyopicPolicy(config, Kilowatts(7.4)));

        const auto counters = config.setupCache->counters();
        EXPECT_EQ(counters.traceMisses, 1u);
        EXPECT_EQ(counters.traceHits, 1u);
        EXPECT_EQ(counters.factorizationMisses, 1u);
        EXPECT_EQ(counters.factorizationHits, 1u);

        plain.run(360);
        cached.run(360);
        cached2.run(360);
        EXPECT_EQ(snapshot(plain), snapshot(cached));
        EXPECT_EQ(snapshot(plain), snapshot(cached2));
    }

    // Traces a caller brings are prefilled under traceSetKey: the cache
    // serves them without generating, and the scale factor it stores
    // from the first member's solve gives a second member the same run.
    auto config = SimulationConfig::paperDefault();
    config.seed = 4242;
    Rng rng(7);
    SetupCache::TraceSet traces;
    for (std::size_t k = 0; k < config.numBenignTenants; ++k) {
        traces.push_back(
            trace::DiurnalTraceGenerator().generate(2 * kMinutesPerDay,
                                                    rng));
    }
    Simulation generated(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    config.setupCache = std::make_shared<SetupCache>();
    config.setupCache->traceSet(SetupCache::traceSetKey(config),
                                [&] { return traces; });
    Simulation cached(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    Simulation cached2(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    const auto counters = config.setupCache->counters();
    EXPECT_EQ(counters.traceHits, 2u);
    EXPECT_EQ(counters.traceMisses, 1u); // the prefill itself
    EXPECT_EQ(counters.scaleHits, 1u);
    EXPECT_EQ(counters.scaleMisses, 1u);
    generated.run(360);
    cached.run(360);
    cached2.run(360);
    EXPECT_EQ(snapshot(cached), snapshot(cached2));
    EXPECT_NE(snapshot(generated), snapshot(cached));
}

} // namespace
