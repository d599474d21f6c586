#include "serve/result_cache.hh"

#include <cstring>

namespace ecolo::serve {

std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

CacheKey
makeCacheKey(const KeyValueConfig &scenario, const std::string &policy,
             double param, std::int64_t horizon_minutes,
             thermal::KernelMode kernel_mode,
             std::uint32_t schema_version)
{
    // Canonical request byte string. Fields are separated by '\x1f'
    // (never produced by the scenario grammar) so adjacent fields can't
    // alias; the scenario contributes key-sorted key=value lines.
    std::string canon;
    canon.reserve(256);
    canon += "edgetherm-rpc-v1\x1f";
    canon += "schema=" + std::to_string(schema_version) + "\x1f";
    canon += "policy=" + policy + "\x1f";
    std::uint64_t param_bits = 0;
    std::memcpy(&param_bits, &param, sizeof(param_bits));
    canon += "param=" + std::to_string(param_bits) + "\x1f";
    canon += "horizon=" + std::to_string(horizon_minutes) + "\x1f";
    canon += "kernel=";
    canon += thermal::kernelModeName(kernel_mode);
    canon += '\x1f';
    for (const auto &[key, value] : scenario.entries()) {
        canon += key;
        canon += '=';
        canon += value;
        canon += '\x1f';
    }
    return CacheKey{fnv1a64(canon)};
}

ResultCache::ResultCache(std::size_t max_bytes, std::size_t max_entries)
    : maxBytes_(max_bytes), maxEntries_(max_entries)
{}

std::optional<std::string>
ResultCache::lookup(const CacheKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key.hash);
    if (it == index_.end()) {
        misses_.inc();
        return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_.inc();
    return it->second->bytes;
}

void
ResultCache::insert(const CacheKey &key, std::string bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (bytes.size() > maxBytes_) {
        oversizeRejected_.inc();
        return;
    }
    const auto it = index_.find(key.hash);
    if (it != index_.end()) {
        // Deterministic engine: same key means same bytes. Refresh
        // recency, keep the original value (preserves byte identity
        // even if a bugged caller hands us different bytes).
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    bytes_ += bytes.size();
    lru_.push_front(Entry{key.hash, std::move(bytes)});
    index_[key.hash] = lru_.begin();
    insertions_.inc();
    evictWhileOverBudgetLocked();
    entriesNow_.set(static_cast<double>(lru_.size()));
    bytesNow_.set(static_cast<double>(bytes_));
}

void
ResultCache::evictWhileOverBudgetLocked()
{
    while (!lru_.empty() &&
           (bytes_ > maxBytes_ || lru_.size() > maxEntries_)) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.bytes.size();
        index_.erase(victim.key);
        lru_.pop_back();
        evictions_.inc();
    }
}

} // namespace ecolo::serve
