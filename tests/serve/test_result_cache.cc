/**
 * @file
 * Content-addressed result cache tests: key derivation (every request
 * field and the engine schema version feed the fingerprint; scenario
 * comments and ordering do not), LRU eviction under both budgets, and
 * byte-identity guarantees.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/version.hh"
#include "serve/result_cache.hh"
#include "stat_reader.hh"
#include "util/keyvalue.hh"

namespace ecolo::serve {
namespace {

using test::readStat;

KeyValueConfig
parseScenario(const std::string &text)
{
    std::istringstream is(text);
    auto kv = KeyValueConfig::tryParse(is, "<test>");
    EXPECT_TRUE(kv.ok());
    return kv.value();
}

TEST(ServeResultCache, KeyDependsOnEveryRequestField)
{
    const KeyValueConfig kv = parseScenario("seed = 7\n");
    const CacheKey base = makeCacheKey(kv, "myopic", 7.4, 1440, thermal::KernelMode::Auto);

    EXPECT_NE(base.hash, makeCacheKey(kv, "random", 7.4, 1440, thermal::KernelMode::Auto).hash);
    EXPECT_NE(base.hash, makeCacheKey(kv, "myopic", 7.5, 1440, thermal::KernelMode::Auto).hash);
    EXPECT_NE(base.hash, makeCacheKey(kv, "myopic", 7.4, 1441, thermal::KernelMode::Auto).hash);
    const KeyValueConfig other = parseScenario("seed = 8\n");
    EXPECT_NE(base.hash, makeCacheKey(other, "myopic", 7.4, 1440, thermal::KernelMode::Auto).hash);
    EXPECT_EQ(base.hash, makeCacheKey(kv, "myopic", 7.4, 1440, thermal::KernelMode::Auto).hash);
}

TEST(ServeResultCache, KeyIgnoresCommentsAndOrdering)
{
    const KeyValueConfig a =
        parseScenario("seed = 7\nbattery.capacityKwh = 0.4\n");
    const KeyValueConfig b = parseScenario(
        "# a comment\nbattery.capacityKwh = 0.4\n\nseed = 7\n");
    EXPECT_EQ(makeCacheKey(a, "myopic", 7.4, 1440, thermal::KernelMode::Auto).hash,
              makeCacheKey(b, "myopic", 7.4, 1440, thermal::KernelMode::Auto).hash);
}

TEST(ServeResultCache, KeyChangesWithEngineSchemaVersion)
{
    // Satellite regression: flipping the engine version must invalidate
    // the cache -- a new build may produce different trajectories, so
    // yesterday's cached report must not answer today's request.
    const KeyValueConfig kv = parseScenario("seed = 7\n");
    const CacheKey current = makeCacheKey(kv, "myopic", 7.4, 1440,
                                          thermal::KernelMode::Auto,
                                          core::kEngineSchemaVersion);
    const CacheKey next = makeCacheKey(kv, "myopic", 7.4, 1440,
                                       thermal::KernelMode::Auto,
                                       core::kEngineSchemaVersion + 1);
    EXPECT_NE(current.hash, next.hash);
}

TEST(ServeResultCache, KeyChangesWithKernelMode)
{
    // The thermal kernel is part of the content address, so switching
    // modes can never serve a stale result -- even when the scenario
    // text does not mention thermal.kernel (e.g. the server's default
    // config changed between runs).
    const KeyValueConfig kv = parseScenario("seed = 7\n");
    const CacheKey as_auto =
        makeCacheKey(kv, "myopic", 7.4, 1440, thermal::KernelMode::Auto);
    const CacheKey as_dense =
        makeCacheKey(kv, "myopic", 7.4, 1440, thermal::KernelMode::Dense);
    EXPECT_NE(as_auto.hash, as_dense.hash);
}

TEST(ServeResultCache, ParamBitsNotTextFeedTheKey)
{
    // 0.1 + 0.2 != 0.3 in doubles; the key must see the exact bits.
    const KeyValueConfig kv = parseScenario("");
    EXPECT_NE(makeCacheKey(kv, "myopic", 0.1 + 0.2, 60, thermal::KernelMode::Auto).hash,
              makeCacheKey(kv, "myopic", 0.3, 60, thermal::KernelMode::Auto).hash);
}

TEST(ServeResultCache, HitReturnsInsertedBytesAndCounts)
{
    ResultCache cache(1 << 20, 16);
    const CacheKey key{1234};
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.insert(key, "report-bytes");
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "report-bytes");
    const auto &stats = cache.stats();
    EXPECT_EQ(readStat(stats, "serve.cache.hits"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.cache.misses"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.cache.insertions"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.cache.entries"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.cache.bytes"),
              static_cast<double>(std::string("report-bytes").size()));
}

TEST(ServeResultCache, DuplicateInsertKeepsOriginalBytes)
{
    ResultCache cache(1 << 20, 16);
    const CacheKey key{1};
    cache.insert(key, "first");
    cache.insert(key, "second");
    EXPECT_EQ(*cache.lookup(key), "first");
    EXPECT_EQ(readStat(cache.stats(), "serve.cache.insertions"), 1.0);
}

TEST(ServeResultCache, EvictsLeastRecentlyUsedOnEntryBudget)
{
    ResultCache cache(1 << 20, 2);
    cache.insert(CacheKey{1}, "one");
    cache.insert(CacheKey{2}, "two");
    ASSERT_TRUE(cache.lookup(CacheKey{1}).has_value()); // 1 now MRU
    cache.insert(CacheKey{3}, "three");                 // evicts 2
    EXPECT_TRUE(cache.lookup(CacheKey{1}).has_value());
    EXPECT_FALSE(cache.lookup(CacheKey{2}).has_value());
    EXPECT_TRUE(cache.lookup(CacheKey{3}).has_value());
    EXPECT_EQ(readStat(cache.stats(), "serve.cache.evictions"), 1.0);
}

TEST(ServeResultCache, EvictsOnByteBudget)
{
    ResultCache cache(10, 100);
    cache.insert(CacheKey{1}, "aaaaaa"); // 6 bytes
    cache.insert(CacheKey{2}, "bbbbbb"); // 12 total -> evict 1
    EXPECT_FALSE(cache.lookup(CacheKey{1}).has_value());
    EXPECT_TRUE(cache.lookup(CacheKey{2}).has_value());
    EXPECT_LE(readStat(cache.stats(), "serve.cache.bytes"), 10.0);
}

TEST(ServeResultCache, OversizeValueIsRejectedNotCached)
{
    ResultCache cache(4, 100);
    cache.insert(CacheKey{1}, "too-big-for-the-whole-cache");
    EXPECT_FALSE(cache.lookup(CacheKey{1}).has_value());
    EXPECT_EQ(readStat(cache.stats(), "serve.cache.oversize_rejected"),
              1.0);
    EXPECT_EQ(readStat(cache.stats(), "serve.cache.entries"), 0.0);
}

TEST(ServeResultCache, Fnv1a64MatchesReferenceVectors)
{
    // Published FNV-1a test vectors pin the wire-stable hash.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

} // namespace
} // namespace ecolo::serve
