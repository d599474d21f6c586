/**
 * @file
 * SetupCache store semantics: the trace-set store's LRU bound, and its
 * hit path under concurrent callers; and a cold set-up nested in a pool
 * body (the SetupCacheParallel and ParallelSetup suites run under the
 * ThreadSanitizer CI job's `ctest -R 'Parallel'`).
 */

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/setup_cache.hh"
#include "util/parallel.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

/** A one-tenant set whose samples identify `key`. */
SetupCache::TraceSet
setFor(std::uint64_t key)
{
    return {trace::UtilizationTrace(
        std::vector<double>(4, static_cast<double>(key) / 10.0))};
}

TEST(SetupCache, TraceSetEvictionIsLeastRecentlyUsed)
{
    ASSERT_EQ(SetupCache::kMaxTraceSets, 4u);
    SetupCache cache;
    int made = 0;
    const auto get = [&](std::uint64_t key) {
        return cache.traceSet(key, [&] {
            ++made;
            return setFor(key);
        });
    };
    for (std::uint64_t key : {1, 2, 3, 4}) // A, B, C, D
        get(key);
    get(1); // hit A: it becomes the most recently used
    get(5); // insert E: evicts B, the least recently used
    ASSERT_EQ(made, 5);

    const auto hits = cache.counters().traceHits;
    get(1);
    EXPECT_EQ(cache.counters().traceHits, hits + 1) << "A was evicted";
    EXPECT_EQ(made, 5);
    get(2);
    EXPECT_EQ(made, 6) << "B outlived a more recently used key";
}

TEST(SetupCacheParallel, ConcurrentHitsKeepTheBound)
{
    constexpr int kThreads = 8;
    constexpr int kCalls = 400;
    constexpr std::uint64_t kKeys = 6;
    SetupCache cache;

    std::vector<std::vector<std::weak_ptr<const SetupCache::TraceSet>>>
        seen(kThreads);
    std::vector<int> wrong(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kCalls; ++i) {
                // Skewed so some keys stay hot while others churn.
                const std::uint64_t key =
                    i % 3 == 0 ? 1 : (static_cast<std::uint64_t>(t + i) %
                                      kKeys) + 1;
                auto set = cache.traceSet(key, [&] { return setFor(key); });
                if (set->size() != 1 ||
                    (*set)[0].samples() != setFor(key)[0].samples())
                    ++wrong[t];
                seen[t].push_back(set);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(wrong[t], 0) << "thread " << t << " read a wrong set";
    const auto counters = cache.counters();
    EXPECT_EQ(counters.traceHits + counters.traceMisses,
              std::uint64_t(kThreads) * kCalls);
    EXPECT_GT(counters.traceHits, 0u);

    // Callers hold nothing now, so the sets still alive are exactly the
    // ones the cache keeps.
    std::set<const SetupCache::TraceSet *> alive;
    for (const auto &sets : seen) {
        for (const auto &weak : sets) {
            if (auto set = weak.lock())
                alive.insert(set.get());
        }
    }
    EXPECT_LE(alive.size(), SetupCache::kMaxTraceSets);
    EXPECT_GE(alive.size(), 1u);
}

/** What a cold Simulation of `config` leaves in a fresh cache. */
struct ColdSetup
{
    std::shared_ptr<const SetupCache::TraceSet> traces;
    double factor = 0.0;
};

ColdSetup
coldSetup(SimulationConfig config)
{
    auto cache = std::make_shared<SetupCache>();
    config.setupCache = cache;
    Simulation sim(config, makeRandomPolicy(config, 0.0));
    ColdSetup out;
    out.traces = cache->traceSet(SetupCache::traceSetKey(config), [] {
        ADD_FAILURE() << "the simulation did not cache its traces";
        return SetupCache::TraceSet{};
    });
    out.factor =
        cache->scaleFactor(SetupCache::scaleFactorKey(config), [] {
            ADD_FAILURE() << "the simulation did not cache its factor";
            return 0.0;
        });
    return out;
}

TEST(ParallelSetup, ColdSimulationInAPoolBodyKeepsTheBits)
{
    // Inside a pool body the set-up's own parallelFor calls run inline
    // (serially); on the main thread they run on the pool.
    util::ThreadPool::setGlobalThreads(4);
    auto config = SimulationConfig::paperDefault();
    config.seed = 13;
    const ColdSetup main_thread = coldSetup(config);
    std::vector<ColdSetup> nested(2);
    util::parallelFor(0, nested.size(),
                      [&](std::size_t i) { nested[i] = coldSetup(config); });
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());

    ASSERT_EQ(main_thread.traces->size(), config.numBenignTenants);
    for (const ColdSetup &n : nested) {
        ASSERT_EQ(n.traces->size(), main_thread.traces->size());
        for (std::size_t k = 0; k < n.traces->size(); ++k) {
            const auto &want = (*main_thread.traces)[k].samples();
            const auto &got = (*n.traces)[k].samples();
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(double)),
                      0)
                << "tenant " << k;
        }
        EXPECT_EQ(std::memcmp(&n.factor, &main_thread.factor,
                              sizeof(double)),
                  0);
    }
}

} // namespace
