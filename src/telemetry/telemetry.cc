#include "telemetry/telemetry.hh"

#include <sstream>

#include "util/parallel.hh"

namespace ecolo::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/**
 * ThreadPool task hook: attribute each completed parallelFor body to the
 * executing worker's trace track and the shared task histogram. Runs on
 * the worker thread; installed only while telemetry is enabled.
 */
void
poolTaskHook(std::size_t index,
             std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end)
{
    if (!enabled())
        return;
    const double us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count() /
        1000.0;
    registry().histogram("profile.pool.task_us").add(us);
    TraceSession &session = trace();
    if (session.active()) {
        session.record("pool.task[" + std::to_string(index) + "]",
                       session.toUs(start),
                       session.toUs(end) - session.toUs(start));
    }
}

} // namespace

void
setEnabled(bool on)
{
    if constexpr (!kCompiledIn)
        return;
    detail::g_enabled.store(on, std::memory_order_relaxed);
    util::ThreadPool::setTaskHook(on ? &poolTaskHook : nullptr);
}

Registry &
registry()
{
    static Registry instance;
    return instance;
}

std::string
metricsJson(std::vector<const Registry *> own)
{
    own.push_back(&registry());
    std::ostringstream os;
    Registry::dumpJson(os, own);
    return os.str();
}

EventLog &
events()
{
    static EventLog instance;
    return instance;
}

TraceSession &
trace()
{
    static TraceSession instance;
    return instance;
}

void
resetForTest()
{
    setEnabled(false);
    registry().clear();
    events().clear();
    trace().clear();
}

} // namespace ecolo::telemetry
