/**
 * @file
 * Heap-allocation regression guard for the steady-state slot loop.
 *
 * The per-minute step is the hot path of every year-long campaign; the
 * streaming thermal kernel and the fleet scratch rows exist so that,
 * once warmed up, stepping the simulation touches the allocator zero
 * times per slot -- alone, through the batch runner, or as a fleet site
 * on the thread pool. With telemetry on, a run() call allocates only to
 * publish its stats. This binary replaces the global operator new with
 * a counting wrapper (which is why these tests live in their own
 * executable) and asserts the count stays flat across
 * hundreds of simulated minutes -- in the healthy steady state and in
 * degraded mode with active cooling and sensor faults. The wrapper also
 * records the largest single request, which bounds what a warm
 * (setup-cache hit) construction may copy.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/fleet.hh"
#include "core/lane_batch.hh"
#include "core/setup_cache.hh"
#include "faults/schedule.hh"
#include "telemetry/telemetry.hh"

namespace {

std::atomic<long long> g_news{0};
std::atomic<std::size_t> g_largest{0};

void
count(std::size_t size)
{
    ++g_news;
    std::size_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
}

void *
countedAlloc(std::size_t size)
{
    count(size);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    count(size);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : align) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    count(size);
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    count(size);
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace ecolo;
using namespace ecolo::core;

long long
allocationsDuring(Simulation &sim, MinuteIndex minutes)
{
    const long long before = g_news.load(std::memory_order_relaxed);
    sim.run(minutes);
    return g_news.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, SteadyStateSlotLoopIsAllocationFree)
{
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));

    // Warmup sizes every scratch arena (thermal ring, rise vectors) and
    // fills the thermal horizon.
    sim.run(30);

    EXPECT_EQ(allocationsDuring(sim, 360), 0)
        << "the healthy steady-state slot loop touched the heap";
}

TEST(ZeroAllocation, TelemetryOnSlotLoopAllocatesPerRunNotPerSlot)
{
    // With telemetry on (stats only, no trace session) a run() call
    // resolves and publishes its stats once; its slots touch no stat by
    // name, so a day of slots allocates no more than an hour.
    telemetry::resetForTest();
    telemetry::setEnabled(true);
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    Simulation sim(config, std::make_unique<StandbyPolicy>());
    sim.run(60); // warmup: scratch sized, every stat registered

    const long long hour = allocationsDuring(sim, 60);
    const long long day = allocationsDuring(sim, kMinutesPerDay);
    telemetry::resetForTest();
    EXPECT_LE(day, hour) << "a telemetry-on slot touched the heap";
}

TEST(ZeroAllocation, DegradedModeSlotLoopIsAllocationFree)
{
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    // Open-ended cooling + sensor faults: the measured window runs
    // entirely inside degraded operation with a faulted side channel.
    ASSERT_TRUE(config.faultSchedule
                    .add({faults::FaultKind::CracCapacityLoss,
                          /*start=*/20, /*duration=*/0,
                          /*magnitude=*/0.3, /*count=*/0})
                    .ok());
    ASSERT_TRUE(config.faultSchedule
                    .add({faults::FaultKind::SideChannelDropout,
                          /*start=*/25, /*duration=*/0,
                          /*magnitude=*/0.0, /*count=*/0})
                    .ok());
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));

    // Warmup crosses both fault onsets (and any one-time transition
    // logging) before the measurement starts.
    sim.run(60);

    EXPECT_EQ(allocationsDuring(sim, 360), 0)
        << "the degraded-mode slot loop touched the heap";
}

TEST(ZeroAllocation, LaneBatchSlotLoopIsAllocationFree)
{
    // Four simulations sharing one setup cache, advanced by the batch
    // runner's pool fan-out: dispatching them and finishing them must
    // be as allocation-free as the scalar loop each one runs.
    auto cache = std::make_shared<SetupCache>();
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    config.setupCache = cache;

    std::vector<std::unique_ptr<Simulation>> sims;
    for (double threshold : {7.2, 7.4, 7.6, 7.8}) {
        sims.push_back(std::make_unique<Simulation>(
            config, makeMyopicPolicy(config, Kilowatts(threshold))));
    }

    LaneBatchRunner runner;
    for (auto &sim : sims)
        runner.add(*sim, 30 + 360);

    // Warmup: starts the pool, sizes every member's scratch buffers and
    // fills the thermal horizon.
    runner.run(30);

    const long long before = g_news.load(std::memory_order_relaxed);
    runner.run(360);
    const long long during =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(during, 0)
        << "the lane-batched slot loop touched the heap";
    EXPECT_TRUE(runner.finished());
}

TEST(ZeroAllocation, ServeStyleBatchedLaneLoopIsAllocationFree)
{
    // The runner driven in status-sized chunks with a per-member cancel
    // check installed (a serve-style token poll). Neither the chunked
    // re-entry, nor the armed cancel branch, nor retiring a cancelled
    // member mid-measurement may touch the heap.
    auto cache = std::make_shared<SetupCache>();
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    config.setupCache = cache;

    std::atomic<bool> cancelled[4];
    for (std::atomic<bool> &flag : cancelled)
        flag.store(false, std::memory_order_relaxed);
    std::vector<std::unique_ptr<Simulation>> sims;
    int lane = 0;
    for (double threshold : {7.2, 7.4, 7.6, 7.8}) {
        sims.push_back(std::make_unique<Simulation>(
            config, makeMyopicPolicy(config, Kilowatts(threshold))));
        std::atomic<bool> *flag = &cancelled[lane++];
        sims.back()->setCancelCheck([flag] {
            return flag->load(std::memory_order_relaxed);
        });
    }

    LaneBatchRunner runner;
    for (auto &sim : sims)
        runner.add(*sim, 30 + 360);
    runner.run(30); // warmup: pool started, scratch buffers sized

    const long long before = g_news.load(std::memory_order_relaxed);
    for (int chunk = 0; chunk < 6 && !runner.finished(); ++chunk) {
        if (chunk == 2) // one member retires early
            cancelled[1].store(true, std::memory_order_relaxed);
        runner.run(60);
    }
    const long long during =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(during, 0)
        << "the serve-style batched lane loop touched the heap";
    EXPECT_TRUE(runner.finished());
    // Retired by its cancel check: no minutes left, well short of its
    // horizon.
    EXPECT_EQ(runner.remaining(1), 0);
    EXPECT_EQ(sims[1]->now(), 30 + 120);
    EXPECT_EQ(sims[0]->now(), 30 + 360);
}

TEST(ZeroAllocation, ChunkedFleetRunIsAllocationFree)
{
    // A checkpointing driver advances a fleet in small chunks; once the
    // outage scratch rows have their capacity, a chunk allocates nothing
    // -- neither the pool dispatch nor any site's slots.
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    FleetSimulation fleet(config, 4, 14 * 60, Kilowatts(6.5));
    fleet.run(30); // warmup: pool started, scratch rows sized

    const long long before = g_news.load(std::memory_order_relaxed);
    for (int chunk = 0; chunk < 6; ++chunk)
        fleet.run(30);
    const long long during =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(during, 0) << "a warm fleet chunk touched the heap";
    EXPECT_EQ(fleet.now(), 30 + 6 * 30);
}

TEST(ZeroAllocation, WarmSetupCopiesNoTrace)
{
    // A warm member reads the cached year-long traces in place: nothing
    // it allocates, in set-up or in a day of slots, comes near the size
    // of one trace (525600 samples, 4.2 MB). The largest legitimate
    // request is the per-member heat-matrix copy (128 KB at the default
    // 40 servers x 10-minute horizon).
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    config.setupCache = std::make_shared<SetupCache>();
    Simulation first(config, makeMyopicPolicy(config, Kilowatts(7.4)));

    g_largest.store(0, std::memory_order_relaxed);
    Simulation member(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    member.run(kMinutesPerDay);
    EXPECT_LT(g_largest.load(std::memory_order_relaxed), 1u << 20)
        << "a warm member made a trace-sized allocation";

    for (std::size_t k = 0; k < config.numBenignTenants; ++k) {
        EXPECT_EQ(&member.benignTenant(k).traceRef(),
                  &first.benignTenant(k).traceRef())
            << "tenant " << k << " holds its own trace copy";
    }
}

} // namespace
