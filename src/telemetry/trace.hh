/**
 * @file
 * Profiling hooks: RAII wall-clock spans recorded into the stats registry
 * and (optionally) into a Chrome trace-event JSON file.
 *
 * A TraceSpan times a phase of real work -- one Simulation::run call, a
 * set-up stage, one CFD spike column, one campaign of a bench batch, one
 * thread-pool task -- and on destruction:
 *
 *  1. feeds the duration (microseconds) into the registry histogram
 *     `profile.<name>_us`, so even a metrics-only run gets a per-phase
 *     wall-clock profile; and
 *  2. when a TraceSession is active, appends a complete ("ph":"X")
 *     trace event on the calling thread's track, producing a file that
 *     loads directly in chrome://tracing or Perfetto.
 *
 * Threads get stable integer track ids on first use; ThreadPool workers
 * carry their pthread name ("edgetherm-N") into the trace via thread-name
 * metadata events. Everything is a no-op (two relaxed atomic loads) when
 * telemetry is disabled, and compiles out entirely with
 * EDGETHERM_TELEMETRY=0.
 */

#ifndef ECOLO_TELEMETRY_TRACE_HH
#define ECOLO_TELEMETRY_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/result.hh"

namespace ecolo::telemetry {

/** One completed span, timestamped in microseconds since session start. */
struct TraceEvent
{
    std::string name;
    std::int32_t tid = 0;
    std::uint64_t startUs = 0;
    std::uint64_t durationUs = 0;
};

/**
 * Collects TraceEvents and serializes them as Chrome trace-event JSON.
 * Inactive by default: spans only append events between begin() and the
 * final write, so year-long metrics runs pay nothing for the trace path.
 */
class TraceSession
{
  public:
    /** Start collecting; resets any previously collected events. */
    void begin();
    bool active() const
    { return active_.load(std::memory_order_relaxed); }
    /** Stop collecting (events are retained for writing). */
    void end();

    /** Convert a steady-clock instant to microseconds since begin(). */
    std::uint64_t toUs(std::chrono::steady_clock::time_point t) const;

    /** Track id of the calling thread, assigning one on first use. */
    std::int32_t currentTid();

    /** Record a completed span ending "now". */
    void record(std::string name, std::uint64_t start_us,
                std::uint64_t duration_us);
    /** Record with explicit thread attribution (pool hook path). */
    void recordOnTid(std::string name, std::int32_t tid,
                     std::uint64_t start_us, std::uint64_t duration_us);

    std::size_t eventCount() const;

    /**
     * Full Chrome trace-event JSON: thread-name metadata first, then
     * every span, loadable in chrome://tracing or ui.perfetto.dev.
     */
    void writeChromeJson(std::ostream &os) const;
    util::Result<void> writeChromeJsonFile(const std::string &path) const;

    /** Drop all events and thread registrations. */
    void clear();

  private:
    std::atomic<bool> active_{false};
    std::atomic<std::uint64_t> generation_{0}; //!< invalidates cached tids
    std::chrono::steady_clock::time_point epoch_{};
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::vector<std::string> threadNames_; //!< index = tid
};

/**
 * RAII wall-clock span. Cheap to construct when telemetry is disabled;
 * see the file comment for the enabled-path behavior.
 */
class TraceSpan
{
  public:
    /**
     * Literal-name form: when telemetry is disabled nothing is copied, so
     * a span on a per-minute path costs one relaxed load and nothing else.
     */
    explicit TraceSpan(const char *name);
    /** Dynamic-name form (per-campaign labels etc.). */
    explicit TraceSpan(std::string name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Finish early (idempotent; the destructor then does nothing). */
    void stop();

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_{};
    bool armed_ = false;
};

} // namespace ecolo::telemetry

#endif // ECOLO_TELEMETRY_TRACE_HH
