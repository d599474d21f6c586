/**
 * @file
 * TailLatency: a thread-safe latency/jitter accumulator with exact
 * quantiles for small populations and log-bucket interpolation beyond.
 *
 * A registry stat kind (Registry::tail): the serve tier keeps one per
 * priority lane and the gateway one per route, to publish p50/p95/p99
 * and jitter (the Welford running standard deviation). The dump expands
 * into flat entries `<name>.count` and
 * `<name>.{mean,jitter,min,max,p50,p95,p99}<unit>`, each
 * `{"kind":"tail","value":v}`. Up to `sampleCapacity` raw samples are
 * retained, so quantiles are *exact* until the buffer fills; after
 * that, new samples land only in base-2 log buckets (the
 * TelemetryHistogram layout) and quantiles are interpolated within the
 * winning bucket -- bounded error, bounded memory, no locks held
 * across allocation.
 */

#ifndef ECOLO_TELEMETRY_LATENCY_HH
#define ECOLO_TELEMETRY_LATENCY_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/stats.hh"

namespace ecolo::telemetry {

/** Welford-style mean/stddev plus quantile tracking for latencies. */
class TailLatency : public StatBase
{
  public:
    /** An unregistered accumulator (benchmarks, tests). */
    explicit TailLatency(std::size_t sample_capacity = 8192);
    /** A registry stat; see Registry::tail for `unit`. */
    TailLatency(std::string name, std::string unit,
                std::size_t sample_capacity = 8192);

    /** Record one sample; NaN and negatives are rejected (counted). */
    void record(double value);

    struct Snapshot
    {
        std::uint64_t count = 0;
        std::uint64_t rejected = 0;
        double mean = 0.0;
        double jitter = 0.0; //!< running standard deviation (Welford)
        double min = 0.0;
        double max = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
        bool exact = true; //!< quantiles from raw samples, not buckets
    };

    Snapshot snapshot() const;
    std::uint64_t count() const;

    void appendJson(std::ostream &os) const override;
    void reset() override;

  private:
    double quantileLocked(double q) const;

    const std::string unit_;
    mutable std::mutex mutex_;
    std::size_t sampleCapacity_;
    std::vector<double> samples_; //!< raw values until capacity
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t rejected_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** `stat` as a tail, or nullptr when it is null or another kind. */
inline const TailLatency *
asTail(const StatBase *stat)
{
    return stat != nullptr && stat->kind() == StatKind::Tail
               ? static_cast<const TailLatency *>(stat)
               : nullptr;
}

} // namespace ecolo::telemetry

#endif // ECOLO_TELEMETRY_LATENCY_HH
