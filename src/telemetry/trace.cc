#include "telemetry/trace.hh"

#include <fstream>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "telemetry/events.hh" // jsonEscape
#include "telemetry/telemetry.hh"

namespace ecolo::telemetry {

namespace {

/**
 * Span names are free-form ("fleet.site[3]", "bench.campaign:myopic"),
 * registry names are not: map a span name onto a valid stat name, keeping
 * dots when that yields a legal name and flattening them otherwise.
 */
std::string
histogramNameFor(const std::string &span_name)
{
    std::string sanitized;
    sanitized.reserve(span_name.size());
    for (char c : span_name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                        c == '.';
        sanitized += ok ? c : '_';
    }
    std::string candidate = "profile." + sanitized + "_us";
    if (Registry::validName(candidate))
        return candidate;
    for (char &c : sanitized) {
        if (c == '.')
            c = '_';
    }
    return "profile." + sanitized + "_us";
}

/** Cached per-thread track id, invalidated when the session restarts. */
struct CachedTid
{
    std::uint64_t generation = 0;
    std::int32_t tid = -1;
};
thread_local CachedTid t_cached_tid;

std::string
currentThreadName(std::int32_t tid)
{
#if defined(__linux__)
    char name[32] = {};
    if (pthread_getname_np(pthread_self(), name, sizeof(name)) == 0 &&
        name[0] != '\0') {
        return name;
    }
#endif
    return tid == 0 ? "main" : "thread-" + std::to_string(tid);
}

} // namespace

void
TraceSession::begin()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    threadNames_.clear();
    epoch_ = std::chrono::steady_clock::now();
    generation_.fetch_add(1, std::memory_order_relaxed);
    active_.store(true, std::memory_order_relaxed);
}

void
TraceSession::end()
{
    active_.store(false, std::memory_order_relaxed);
}

std::uint64_t
TraceSession::toUs(std::chrono::steady_clock::time_point t) const
{
    if (t < epoch_)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
}

std::int32_t
TraceSession::currentTid()
{
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (t_cached_tid.tid >= 0 && t_cached_tid.generation == gen)
        return t_cached_tid.tid;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto tid = static_cast<std::int32_t>(threadNames_.size());
    threadNames_.push_back(currentThreadName(tid));
    t_cached_tid = CachedTid{gen, tid};
    return tid;
}

void
TraceSession::record(std::string name, std::uint64_t start_us,
                     std::uint64_t duration_us)
{
    recordOnTid(std::move(name), currentTid(), start_us, duration_us);
}

void
TraceSession::recordOnTid(std::string name, std::int32_t tid,
                          std::uint64_t start_us,
                          std::uint64_t duration_us)
{
    if (!active())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(
        TraceEvent{std::move(name), tid, start_us, duration_us});
}

std::size_t
TraceSession::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
TraceSession::writeChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    // Thread-name metadata events give each pool worker its own named
    // track in chrome://tracing / Perfetto.
    for (std::size_t tid = 0; tid < threadNames_.size(); ++tid) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(threadNames_[tid]) << "\"}}";
    }
    for (const TraceEvent &e : events_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"name\":\""
           << jsonEscape(e.name) << "\",\"ts\":" << e.startUs
           << ",\"dur\":" << e.durationUs << "}";
    }
    os << "]}\n";
}

util::Result<void>
TraceSession::writeChromeJsonFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "cannot open profile output file: ", path);
    }
    writeChromeJson(os);
    os.flush();
    if (!os) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "short write to profile output file: ", path);
    }
    return {};
}

void
TraceSession::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    active_.store(false, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_relaxed);
    events_.clear();
    threadNames_.clear();
}

// ---- TraceSpan ----

TraceSpan::TraceSpan(const char *name)
{
    if (!enabled())
        return;
    name_ = name;
    start_ = std::chrono::steady_clock::now();
    armed_ = true;
}

TraceSpan::TraceSpan(std::string name)
{
    if (!enabled())
        return;
    name_ = std::move(name);
    start_ = std::chrono::steady_clock::now();
    armed_ = true;
}

TraceSpan::~TraceSpan()
{
    stop();
}

void
TraceSpan::stop()
{
    if (!armed_)
        return;
    armed_ = false;
    const auto end = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count() /
        1000.0;
    registry().histogram(histogramNameFor(name_)).add(us);
    TraceSession &session = trace();
    if (session.active()) {
        session.record(name_, session.toUs(start_),
                       session.toUs(end) - session.toUs(start_));
    }
}

} // namespace ecolo::telemetry
