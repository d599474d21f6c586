/**
 * @file
 * The gem5-style stats side of the observability layer: nameable,
 * hierarchical simulation statistics collected into a Registry and dumped
 * as machine-readable JSON.
 *
 * Four stat kinds cover what the simulator needs:
 *
 * - Counter:    monotonically increasing event count
 *               (`engine.emergency.declared`).
 * - Gauge:      last-written or accumulated instantaneous value
 *               (`battery.soc`, `serve.queue.depth`).
 * - Histogram:  fixed log-scale (base-2) buckets plus count/sum/min/max,
 *               for durations and error magnitudes
 *               (`sidechannel.estimate_error_kw`, `profile.*_us`).
 * - Tail:       telemetry::TailLatency (latency.hh), exact p50/p95/p99
 *               and jitter; dumps as flat `<name>.p99<unit>`-style
 *               entries (`serve.latency.interactive.p99_us`).
 *
 * Stats are registered by dotted hierarchical name; asking for the same
 * name and kind again returns the same instance (so independent modules
 * can share a stat), while re-registering a name under a different kind
 * is a programming error and panics. All mutators are thread-safe: fleet
 * campaigns update shared stats from pool workers.
 *
 * Besides the process-wide registry (telemetry.hh), every serving
 * component owns a Registry, registers its stats once at construction,
 * and keeps the returned references for its hot paths. A metrics
 * document is the merged dump of a component's registries followed by
 * the process registry (Registry::dumpJson over a list).
 */

#ifndef ECOLO_TELEMETRY_STATS_HH
#define ECOLO_TELEMETRY_STATS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/result.hh"

namespace ecolo::telemetry {

/** What a registry entry is; fixed at first registration. */
enum class StatKind
{
    Counter,
    Gauge,
    Histogram,
    Tail,
};

const char *toString(StatKind kind);

/** JSON-format a double: finite values round-trip, non-finite as null. */
void appendJsonNumber(std::ostream &os, double v);

/** Shared base so the registry can own a heterogeneous map. */
class StatBase
{
  public:
    StatBase(std::string name, StatKind kind)
        : name_(std::move(name)), kind_(kind)
    {}
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    StatKind kind() const { return kind_; }

    /**
     * Append this stat's `"name":{...}` JSON member (no surrounding
     * commas); a tail appends several flat members.
     */
    virtual void appendJson(std::ostream &os) const = 0;
    /** Drop accumulated values (tests / repeated harness runs). */
    virtual void reset() = 0;

  private:
    std::string name_;
    StatKind kind_;
};

/** Monotonically increasing event count. */
class Counter : public StatBase
{
  public:
    explicit Counter(std::string name)
        : StatBase(std::move(name), StatKind::Counter)
    {}

    void inc(std::uint64_t n = 1)
    { value_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const
    { return value_.load(std::memory_order_relaxed); }

    void appendJson(std::ostream &os) const override;
    void reset() override { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value. */
class Gauge : public StatBase
{
  public:
    explicit Gauge(std::string name)
        : StatBase(std::move(name), StatKind::Gauge)
    {}

    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    /** Accumulate (e.g. +1/-1 as connections open and close). */
    void add(double delta);
    double value() const { return value_.load(std::memory_order_relaxed); }

    void appendJson(std::ostream &os) const override;
    void reset() override { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed log-scale histogram: bucket 0 holds [0, 1), bucket i >= 1 holds
 * [2^(i-1), 2^i), and the top bucket absorbs everything larger (including
 * +inf). The unit is the caller's choice (microseconds for the profiling
 * timers, watts for estimate error); base-2 buckets keep add() branch-free
 * and the dump compact over the 9-decade range a year-long run produces.
 *
 * NaN and negative samples are *rejected* (counted separately, never
 * binned): a NaN estimate error must not silently poison the sum.
 */
class TelemetryHistogram : public StatBase
{
  public:
    static constexpr std::size_t kNumBuckets = 64;

    explicit TelemetryHistogram(std::string name)
        : StatBase(std::move(name), StatKind::Histogram)
    {}

    void add(double v);

    /** Bucket index a value would land in (exposed for tests). */
    static std::size_t bucketIndex(double v);
    /** Inclusive lower bound of bucket i. */
    static double bucketLo(std::size_t i);
    /** Exclusive upper bound of bucket i (inf for the top bucket). */
    static double bucketHi(std::size_t i);

    std::uint64_t count() const
    { return count_.load(std::memory_order_relaxed); }
    std::uint64_t rejected() const
    { return rejected_.load(std::memory_order_relaxed); }
    std::uint64_t bucketCount(std::size_t i) const
    { return buckets_[i].load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const;
    double min() const;
    double max() const;

    void appendJson(std::ostream &os) const override;
    void reset() override;

  private:
    std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

class TailLatency;

/**
 * The numeric value of a counter or gauge; NaN for a null pointer or a
 * multi-valued stat (histogram, tail).
 */
double statValue(const StatBase *stat);

/**
 * The stats registry: dotted-name -> stat instance. Registration is
 * thread-safe and idempotent per (name, kind); returned references stay
 * valid for the registry's lifetime. Names must be non-empty sequences of
 * [A-Za-z0-9_-] segments separated by single dots.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    TelemetryHistogram &histogram(const std::string &name);
    /**
     * A tail-latency stat; `unit` suffixes its dumped entries except
     * the count (`"_us"`: `<name>.count`, `<name>.p99_us`, ...).
     */
    TailLatency &tail(const std::string &name, const std::string &unit);

    /** Look up any stat by name; nullptr when absent. */
    const StatBase *find(const std::string &name) const;

    std::size_t size() const;

    /** True iff `name` is a legal dotted stat name. */
    static bool validName(const std::string &name);

    /** One JSON object keyed by stat name, sorted, schema-versioned. */
    void dumpJson(std::ostream &os) const;
    /**
     * One edgetherm-metrics-v1 document over several registries, keys
     * merged in name order; a name registered in more than one is
     * written once, from the first registry listed.
     */
    static void dumpJson(std::ostream &os,
                         const std::vector<const Registry *> &registries);
    /** dumpJson to a file (atomic enough for a run-end sink). */
    util::Result<void> writeJsonFile(const std::string &path) const;

    /** Reset every stat's value (names stay registered). */
    void resetValues();
    /** Drop every stat (invalidates outstanding references; tests only). */
    void clear();

  private:
    template <typename T, typename... Args>
    T &getOrCreate(const std::string &name, StatKind kind,
                   Args &&...args);

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<StatBase>> stats_;
};

} // namespace ecolo::telemetry

#endif // ECOLO_TELEMETRY_STATS_HH
