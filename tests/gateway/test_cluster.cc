/**
 * @file
 * Property tests for the cluster layer: the --workers list parser and
 * the rendezvous (highest-random-weight) placement -- determinism
 * across gateways, balance across workers, minimal remap on membership
 * churn (the property that keeps warm worker caches warm), and
 * healthy-first re-ranking.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gateway/cluster.hh"
#include "serve/result_cache.hh"
#include "stat_reader.hh"
#include "util/rng.hh"

namespace ecolo::gateway {
namespace {

using test::readStat;

std::vector<WorkerAddress>
makeWorkers(std::size_t n, std::uint16_t base_port = 7471)
{
    std::vector<WorkerAddress> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({"127.0.0.1",
                       static_cast<std::uint16_t>(base_port + i)});
    return out;
}

WorkerPool::Options
noProbe()
{
    WorkerPool::Options options;
    options.probeIntervalMs = 0; // no background thread in unit tests
    return options;
}

TEST(GatewayWorkerList, ParsesHostsPortsAndIpv6)
{
    auto parsed = parseWorkerList(
        "127.0.0.1:7471, edge-box:7472,[::1]:7473");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const auto &workers = parsed.value();
    ASSERT_EQ(workers.size(), 3u);
    EXPECT_EQ(workers[0].host, "127.0.0.1");
    EXPECT_EQ(workers[0].port, 7471);
    EXPECT_EQ(workers[1].host, "edge-box");
    EXPECT_EQ(workers[1].port, 7472);
    EXPECT_EQ(workers[2].host, "::1");
    EXPECT_EQ(workers[2].port, 7473);
    EXPECT_EQ(workers[0].label(), "127.0.0.1:7471");
}

TEST(GatewayWorkerList, RejectsMalformedEntries)
{
    for (const char *text :
         {"", ",", "127.0.0.1", "host:", ":7471", "host:0",
          "host:70000", "host:12x4", "a:1,,b:2", "[::1]7473",
          "[::1:7473"}) {
        auto parsed = parseWorkerList(text);
        EXPECT_FALSE(parsed.ok()) << "accepted: '" << text << "'";
        if (!parsed.ok())
            EXPECT_EQ(parsed.error().code,
                      util::ErrorCode::ValidationError);
    }
}

TEST(GatewayRendezvous, RankingIsDeterministicAcrossPools)
{
    WorkerPool a(makeWorkers(5), noProbe());
    WorkerPool b(makeWorkers(5), noProbe());
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t key = rng.next();
        EXPECT_EQ(a.rankForKey(key), b.rankForKey(key));
    }
}

TEST(GatewayRendezvous, EveryRankingIsAPermutation)
{
    WorkerPool pool(makeWorkers(7), noProbe());
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        auto order = pool.rankForKey(rng.next());
        ASSERT_EQ(order.size(), 7u);
        std::vector<bool> seen(7, false);
        for (const std::size_t idx : order) {
            ASSERT_LT(idx, 7u);
            EXPECT_FALSE(seen[idx]);
            seen[idx] = true;
        }
    }
}

TEST(GatewayRendezvous, KeysSpreadAcrossWorkers)
{
    WorkerPool pool(makeWorkers(4), noProbe());
    std::map<std::size_t, int> owners;
    Rng rng(13);
    const int keys = 4000;
    for (int i = 0; i < keys; ++i)
        ++owners[pool.rankForKey(rng.next())[0]];
    ASSERT_EQ(owners.size(), 4u);
    for (const auto &[worker, count] : owners) {
        // Perfectly uniform would be 1000 each; allow a wide margin.
        EXPECT_GT(count, keys / 8) << "worker " << worker;
        EXPECT_LT(count, keys / 2) << "worker " << worker;
    }
}

TEST(GatewayRendezvous, MembershipChurnRemapsOnlyTheLostShard)
{
    // Remove one worker from a 5-node pool: the only keys whose owner
    // changes are the ones that worker owned -- rendezvous hashing's
    // defining property. Scores are per-(worker, key), so the 4-node
    // pool built from the surviving addresses must agree with the
    // 5-node pool on every other key's owner.
    const auto five = makeWorkers(5);
    auto four = five;
    const std::size_t removed = 2;
    four.erase(four.begin() + removed);

    WorkerPool poolFive(five, noProbe());
    WorkerPool poolFour(four, noProbe());

    Rng rng(14);
    int owned_by_removed = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = rng.next();
        const std::size_t ownerFive = poolFive.rankForKey(key)[0];
        const std::size_t ownerFour = poolFour.rankForKey(key)[0];
        if (ownerFive == removed) {
            ++owned_by_removed;
            continue; // these must remap somewhere; anywhere is fine
        }
        // Index shift: workers after the removed one slide down by 1.
        const std::size_t expected =
            ownerFive < removed ? ownerFive : ownerFive - 1;
        EXPECT_EQ(ownerFour, expected) << "key " << key;
    }
    EXPECT_GT(owned_by_removed, 0); // the property was actually tested
}

TEST(GatewayRendezvous, ScoreMatchesThePublishedFormula)
{
    // The score function is part of the cross-gateway contract: every
    // coordinator must compute the same placement with no coordination.
    const WorkerAddress addr{"127.0.0.1", 7471};
    std::uint64_t x = serve::fnv1a64(addr.label()) ^
                      (99u + 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    EXPECT_EQ(WorkerPool::rendezvousScore(addr, 99), x);
}

TEST(GatewayRendezvous, UnhealthyWorkersSinkToTheBack)
{
    WorkerPool pool(makeWorkers(4), noProbe());
    Rng rng(15);
    const std::uint64_t key = rng.next();
    const auto before = pool.rankForKey(key);

    const std::size_t preferred = before[0];
    pool.setHealthy(preferred, false);
    const auto after = pool.rankForKey(key);
    // The dead preferred worker is now ranked last...
    EXPECT_EQ(after.back(), preferred);
    // ...and the healthy workers keep their relative rendezvous order.
    std::vector<std::size_t> healthyBefore(before.begin() + 1,
                                           before.end());
    std::vector<std::size_t> healthyAfter(after.begin(),
                                          after.end() - 1);
    EXPECT_EQ(healthyAfter, healthyBefore);

    // Revival restores the original ranking exactly.
    pool.setHealthy(preferred, true);
    EXPECT_EQ(pool.rankForKey(key), before);
    EXPECT_EQ(pool.healthyCount(), 4u);
}

TEST(GatewayRendezvous, HealthGaugesTrackTheFlag)
{
    WorkerPool pool(makeWorkers(3), noProbe());
    const telemetry::Registry &stats = pool.stats();
    EXPECT_EQ(readStat(stats, "gateway.workers.total"), 3.0);
    EXPECT_EQ(readStat(stats, "gateway.workers.healthy"), 3.0);
    pool.setHealthy(1, false);
    pool.setHealthy(1, false); // not a transition: no double count
    EXPECT_EQ(readStat(stats, "gateway.worker.1.healthy"), 0.0);
    EXPECT_EQ(readStat(stats, "gateway.workers.healthy"), 2.0);
    pool.setHealthy(1, true);
    pool.setHealthy(1, true);
    EXPECT_EQ(readStat(stats, "gateway.worker.1.healthy"), 1.0);
    EXPECT_EQ(readStat(stats, "gateway.workers.healthy"), 3.0);
}

TEST(GatewayRendezvous, AllWorkersUnreachableIsATypedError)
{
    // Ports in the dynamic range with nothing listening: connect fails
    // fast on loopback, the pool walks every replica, and the caller
    // gets one typed error naming the cluster size.
    WorkerPool::Options options = noProbe();
    options.retry.maxAttempts = 1;
    options.retry.baseBackoffMs = 1;
    WorkerPool pool(makeWorkers(2, 1), options); // ports 1 and 2
    serve::RequestSpec spec;
    spec.policy = "standby";
    spec.horizonMinutes = 60;
    auto outcome = pool.submit(spec, 1234);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, util::ErrorCode::IoError);
    EXPECT_NE(outcome.error().message.find("2 workers unreachable"),
              std::string::npos)
        << outcome.error().message;
    EXPECT_EQ(pool.healthyCount(), 0u);
    EXPECT_EQ(readStat(pool.stats(), "gateway.worker.0.transport_errors") +
                  readStat(pool.stats(), "gateway.worker.1.transport_errors"),
              2.0);
    EXPECT_EQ(readStat(pool.stats(), "gateway.workers.healthy"), 0.0);
    EXPECT_EQ(readStat(pool.stats(), "gateway.worker.1.healthy"), 0.0);
}

} // namespace
} // namespace ecolo::gateway
