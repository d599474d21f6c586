#include "telemetry/latency.hh"

#include <algorithm>
#include <cmath>

namespace ecolo::telemetry {

TailLatency::TailLatency(std::size_t sample_capacity)
    : TailLatency(std::string(), std::string(), sample_capacity)
{}

TailLatency::TailLatency(std::string name, std::string unit,
                         std::size_t sample_capacity)
    : StatBase(std::move(name), StatKind::Tail),
      unit_(std::move(unit)),
      sampleCapacity_(std::max<std::size_t>(1, sample_capacity)),
      buckets_(TelemetryHistogram::kNumBuckets, 0)
{
    samples_.reserve(std::min<std::size_t>(sampleCapacity_, 1024));
}

void
TailLatency::record(double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (std::isnan(value) || value < 0.0) {
        ++rejected_;
        return;
    }
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    if (samples_.size() < sampleCapacity_)
        samples_.push_back(value);
    ++buckets_[TelemetryHistogram::bucketIndex(value)];
}

std::uint64_t
TailLatency::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

void
TailLatency::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = rejected_ = 0;
    mean_ = m2_ = min_ = max_ = 0.0;
}

double
TailLatency::quantileLocked(double q) const
{
    // Log-bucket path: find the bucket holding the rank, interpolate
    // linearly inside it, clamped to the observed [min, max].
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (seen + buckets_[i] <= rank) {
            seen += buckets_[i];
            continue;
        }
        const double within = buckets_[i] <= 1
            ? 0.0
            : static_cast<double>(rank - seen) /
                  static_cast<double>(buckets_[i] - 1);
        const double lo =
            std::max(TelemetryHistogram::bucketLo(i), min_);
        const double hi = std::min(
            std::isinf(TelemetryHistogram::bucketHi(i))
                ? max_
                : TelemetryHistogram::bucketHi(i),
            max_);
        return lo + within * std::max(0.0, hi - lo);
    }
    return max_;
}

TailLatency::Snapshot
TailLatency::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot s;
    s.count = count_;
    s.rejected = rejected_;
    if (count_ == 0)
        return s;
    s.mean = mean_;
    s.jitter = std::sqrt(m2_ / static_cast<double>(count_));
    s.min = min_;
    s.max = max_;
    s.exact = samples_.size() == count_;
    if (s.exact) {
        std::vector<double> sorted(samples_);
        std::sort(sorted.begin(), sorted.end());
        const auto at = [&](double q) {
            const std::size_t idx = static_cast<std::size_t>(
                q * static_cast<double>(sorted.size() - 1) + 0.5);
            return sorted[std::min(idx, sorted.size() - 1)];
        };
        s.p50 = at(0.50);
        s.p95 = at(0.95);
        s.p99 = at(0.99);
    } else {
        s.p50 = quantileLocked(0.50);
        s.p95 = quantileLocked(0.95);
        s.p99 = quantileLocked(0.99);
    }
    return s;
}

void
TailLatency::appendJson(std::ostream &os) const
{
    const Snapshot s = snapshot();
    os << "\"" << name() << ".count\":{\"kind\":\"tail\",\"value\":"
       << s.count << "}";
    const std::pair<const char *, double> fields[] = {
        {"mean", s.mean}, {"jitter", s.jitter}, {"min", s.min},
        {"max", s.max},   {"p50", s.p50},       {"p95", s.p95},
        {"p99", s.p99},
    };
    for (const auto &[field, value] : fields) {
        os << ",\"" << name() << "." << field << unit_
           << "\":{\"kind\":\"tail\",\"value\":";
        appendJsonNumber(os, value);
        os << "}";
    }
}

} // namespace ecolo::telemetry
