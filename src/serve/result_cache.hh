/**
 * @file
 * Content-addressed result cache for served simulation runs.
 *
 * The engine is deterministic: a (scenario, policy, parameter, horizon)
 * tuple fully determines the run, so the serialized report is cacheable
 * by the *content* of the request. The key hashes the canonical scenario
 * form (KeyValueConfig::entries(): key-sorted pairs, comments and
 * declaration order already normalized away) together with the policy,
 * its parameter's exact IEEE-754 bits, the horizon, and the engine
 * schema version (core/version.hh) -- so two textually different but
 * semantically identical scenario files hit the same entry, while a
 * report produced by an older, behaviorally different build can never
 * be served by a newer one.
 *
 * Values are the response payload bytes verbatim: a hit is byte-
 * identical to the miss that populated it. Eviction is LRU under both
 * an entry-count and a byte budget. All operations are thread-safe.
 * The cache counts serve.cache.* in its own telemetry registry (always
 * on, even with telemetry compiled out), its entries/bytes gauges kept
 * current under the cache mutex; Server::metricsJson dumps it as is.
 */

#ifndef ECOLO_SERVE_RESULT_CACHE_HH
#define ECOLO_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/version.hh"
#include "telemetry/stats.hh"
#include "thermal/heat_matrix.hh"
#include "util/keyvalue.hh"

namespace ecolo::serve {

/** 64-bit FNV-1a over a byte string (stable across platforms/builds). */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/** Content hash of one request. */
struct CacheKey
{
    std::uint64_t hash = 0;

    bool operator==(const CacheKey &other) const
    { return hash == other.hash; }
};

/**
 * Build the content-addressed key. @param scenario is the parsed
 * request scenario; @param kernel_mode is the thermal kernel the run
 * resolves to from the applied config (a mode switch changes the
 * fp-level trajectory, so it is part of the content address even when
 * the scenario text omits thermal.kernel); @param schema_version
 * defaults to the build's engine version and is overridable for
 * regression tests.
 */
CacheKey makeCacheKey(const KeyValueConfig &scenario,
                      const std::string &policy, double param,
                      std::int64_t horizon_minutes,
                      thermal::KernelMode kernel_mode,
                      std::uint32_t schema_version =
                          core::kEngineSchemaVersion);

/** LRU map from CacheKey to response payload bytes. */
class ResultCache
{
  public:
    ResultCache(std::size_t max_bytes, std::size_t max_entries);

    /**
     * Return the cached bytes and refresh the entry's recency, or
     * std::nullopt. Counts a hit or a miss.
     */
    std::optional<std::string> lookup(const CacheKey &key);

    /**
     * Insert (or refresh) an entry, evicting least-recently-used ones
     * until both budgets hold. A value larger than the whole byte
     * budget is rejected (counted, not stored) rather than flushing
     * the entire cache for one giant report.
     */
    void insert(const CacheKey &key, std::string bytes);

    const telemetry::Registry &stats() const { return stats_; }
    std::size_t maxBytes() const { return maxBytes_; }
    std::size_t maxEntries() const { return maxEntries_; }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::string bytes;
    };

    void evictWhileOverBudgetLocked();

    const std::size_t maxBytes_;
    const std::size_t maxEntries_;

    mutable std::mutex mutex_;
    std::list<Entry> lru_; //!< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::size_t bytes_ = 0;

    telemetry::Registry stats_;
    telemetry::Counter &hits_ = stats_.counter("serve.cache.hits");
    telemetry::Counter &misses_ = stats_.counter("serve.cache.misses");
    telemetry::Counter &evictions_ = stats_.counter("serve.cache.evictions");
    telemetry::Counter &insertions_ =
        stats_.counter("serve.cache.insertions");
    telemetry::Counter &oversizeRejected_ =
        stats_.counter("serve.cache.oversize_rejected");
    telemetry::Gauge &entriesNow_ = stats_.gauge("serve.cache.entries");
    telemetry::Gauge &bytesNow_ = stats_.gauge("serve.cache.bytes");
};

} // namespace ecolo::serve

#endif // ECOLO_SERVE_RESULT_CACHE_HH
