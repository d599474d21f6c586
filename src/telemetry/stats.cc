#include "telemetry/stats.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "telemetry/latency.hh"
#include "util/logging.hh"

namespace ecolo::telemetry {

namespace {

/** Relaxed CAS accumulate (atomic<double> has no fetch_add pre-C++20
 * library support everywhere). */
void
atomicAdd(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (v < cur && !target.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (v > cur && !target.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

/** Finite values round-trip at 17 digits; non-finite ones are null. */
void
appendJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream oss;
    oss << std::setprecision(17) << v;
    os << oss.str();
}

const char *
toString(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Histogram:
        return "histogram";
      case StatKind::Tail:
        return "tail";
    }
    return "unknown";
}

double
statValue(const StatBase *stat)
{
    if (stat == nullptr)
        return std::numeric_limits<double>::quiet_NaN();
    switch (stat->kind()) {
      case StatKind::Counter:
        return static_cast<double>(
            static_cast<const Counter *>(stat)->value());
      case StatKind::Gauge:
        return static_cast<const Gauge *>(stat)->value();
      default:
        return std::numeric_limits<double>::quiet_NaN();
    }
}

// ---- Counter / Gauge ----

void
Counter::appendJson(std::ostream &os) const
{
    os << "\"" << name() << "\":{\"kind\":\"counter\",\"value\":"
       << value() << "}";
}

void
Gauge::add(double delta)
{
    atomicAdd(value_, delta);
}

void
Gauge::appendJson(std::ostream &os) const
{
    os << "\"" << name() << "\":{\"kind\":\"gauge\",\"value\":";
    appendJsonNumber(os, value());
    os << "}";
}

// ---- TelemetryHistogram ----

std::size_t
TelemetryHistogram::bucketIndex(double v)
{
    // Callers must reject NaN/negatives before binning.
    if (v < 1.0)
        return 0;
    if (std::isinf(v))
        return kNumBuckets - 1;
    const int e = std::ilogb(v); // floor(log2(v)), v >= 1 here
    const std::size_t i = static_cast<std::size_t>(e) + 1;
    return std::min(i, kNumBuckets - 1);
}

double
TelemetryHistogram::bucketLo(std::size_t i)
{
    return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double
TelemetryHistogram::bucketHi(std::size_t i)
{
    if (i >= kNumBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return std::ldexp(1.0, static_cast<int>(i));
}

void
TelemetryHistogram::add(double v)
{
    if (std::isnan(v) || v < 0.0) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t prev =
        count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    if (prev == 0) {
        // First sample initializes min/max; races with concurrent adds
        // resolve through the CAS loops below.
        double expected = 0.0;
        min_.compare_exchange_strong(expected, v,
                                     std::memory_order_relaxed);
        expected = 0.0;
        max_.compare_exchange_strong(expected, v,
                                     std::memory_order_relaxed);
    }
    atomicMin(min_, v);
    atomicMax(max_, v);
}

double
TelemetryHistogram::mean() const
{
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
}

double
TelemetryHistogram::min() const
{
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double
TelemetryHistogram::max() const
{
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

void
TelemetryHistogram::appendJson(std::ostream &os) const
{
    os << "\"" << name() << "\":{\"kind\":\"histogram\",\"count\":"
       << count() << ",\"rejected\":" << rejected() << ",\"sum\":";
    appendJsonNumber(os, sum());
    os << ",\"mean\":";
    appendJsonNumber(os, mean());
    os << ",\"min\":";
    appendJsonNumber(os, min());
    os << ",\"max\":";
    appendJsonNumber(os, max());
    os << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        const std::uint64_t c = bucketCount(i);
        if (c == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"lo\":";
        appendJsonNumber(os, bucketLo(i));
        os << ",\"hi\":";
        appendJsonNumber(os, bucketHi(i));
        os << ",\"count\":" << c << "}";
    }
    os << "]}";
}

void
TelemetryHistogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    rejected_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

// ---- Registry ----

bool
Registry::validName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    bool prev_dot = false;
    for (char c : name) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

template <typename T, typename... Args>
T &
Registry::getOrCreate(const std::string &name, StatKind kind,
                      Args &&...args)
{
    ECOLO_ASSERT(validName(name), "invalid stat name '", name,
                 "' (expected dotted [A-Za-z0-9_-] segments)");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.find(name);
    if (it == stats_.end()) {
        auto stat =
            std::make_unique<T>(name, std::forward<Args>(args)...);
        T &ref = *stat;
        stats_.emplace(name, std::move(stat));
        return ref;
    }
    ECOLO_ASSERT(it->second->kind() == kind, "stat name collision: '",
                 name, "' is already registered as ",
                 toString(it->second->kind()), ", requested ",
                 toString(kind));
    return static_cast<T &>(*it->second);
}

Counter &
Registry::counter(const std::string &name)
{
    return getOrCreate<Counter>(name, StatKind::Counter);
}

Gauge &
Registry::gauge(const std::string &name)
{
    return getOrCreate<Gauge>(name, StatKind::Gauge);
}

TelemetryHistogram &
Registry::histogram(const std::string &name)
{
    return getOrCreate<TelemetryHistogram>(name, StatKind::Histogram);
}

TailLatency &
Registry::tail(const std::string &name, const std::string &unit)
{
    return getOrCreate<TailLatency>(name, StatKind::Tail, unit);
}

const StatBase *
Registry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second.get();
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.size();
}

void
Registry::dumpJson(std::ostream &os) const
{
    dumpJson(os, {this});
}

void
Registry::dumpJson(std::ostream &os,
                   const std::vector<const Registry *> &registries)
{
    // Each registry renders under its own lock; none is held while
    // another is taken.
    std::vector<std::pair<std::string, std::string>> members;
    for (const Registry *reg : registries) {
        std::lock_guard<std::mutex> lock(reg->mutex_);
        for (const auto &[name, stat] : reg->stats_) {
            std::ostringstream member;
            stat->appendJson(member);
            members.emplace_back(name, member.str());
        }
    }
    std::stable_sort(members.begin(), members.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    os << "{\"schema\":\"edgetherm-metrics-v1\",\"stats\":{";
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0 && members[i].first == members[i - 1].first)
            continue; // registered in an earlier registry too
        if (i > 0)
            os << ",";
        os << members[i].second;
    }
    os << "}}\n";
}

util::Result<void>
Registry::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "cannot open metrics output file: ", path);
    }
    dumpJson(os);
    os.flush();
    if (!os) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "short write to metrics output file: ", path);
    }
    return {};
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, stat] : stats_)
        stat->reset();
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.clear();
}

} // namespace ecolo::telemetry
