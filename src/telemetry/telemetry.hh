/**
 * @file
 * Process-wide telemetry facade: one stats Registry, one EventLog, one
 * TraceSession, and the master on/off switch the instrumented hot paths
 * key off.
 *
 * Cost contract (verified by the fault-free bit-identity tests):
 *
 * - Compile-time off (-DEDGETHERM_TELEMETRY=0): enabled() is constexpr
 *   false, so every instrumentation site dead-codes away entirely.
 * - Runtime off (the default): enabled() is one relaxed atomic load;
 *   no clocks are read, no locks taken, no allocations made.
 * - On: stats/events go through mutex- or atomic-protected sinks that
 *   never touch simulation state or RNG streams, so enabling telemetry
 *   cannot move a simulation by even one ULP.
 *
 * Telemetry state is deliberately excluded from checkpoints: a resumed
 * run re-observes from the resume point, and kill+resume stays
 * bit-identical whether or not telemetry was on.
 */

#ifndef ECOLO_TELEMETRY_TELEMETRY_HH
#define ECOLO_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/events.hh"
#include "telemetry/stats.hh"
#include "telemetry/trace.hh"

#ifndef EDGETHERM_TELEMETRY
#define EDGETHERM_TELEMETRY 1
#endif

namespace ecolo::telemetry {

/** True when the instrumentation is compiled in at all. */
inline constexpr bool kCompiledIn = EDGETHERM_TELEMETRY != 0;

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** The master switch every instrumentation site checks first. */
inline bool
enabled()
{
    if constexpr (!kCompiledIn)
        return false;
    else
        return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Turn collection on or off. Enabling also installs the ThreadPool task
 * hook (per-worker task timing); disabling removes it. With telemetry
 * compiled out this is a no-op and enabled() stays false.
 */
void setEnabled(bool on);

/** The process-wide stats registry. */
Registry &registry();
/**
 * The edgetherm-metrics-v1 document of one component: its own
 * registries, then the process registry (engine.*, profile.*),
 * merged by name. The component's stats win a name clash.
 */
std::string metricsJson(std::vector<const Registry *> own);

/** The process-wide structured event log. */
EventLog &events();
/** The process-wide Chrome-trace session (inactive until begin()). */
TraceSession &trace();

/** Emit an event iff telemetry is enabled (the usual call shape). */
inline void
emitEvent(MinuteIndex minute, EventKind kind, double value = 0.0,
          std::string detail = {})
{
    if (enabled())
        events().emit(minute, kind, value, std::move(detail));
}

/**
 * Disable collection and drop all registered stats, events, trace data
 * and thread registrations. Tests only: outstanding stat references from
 * before the reset dangle.
 */
void resetForTest();

} // namespace ecolo::telemetry

#endif // ECOLO_TELEMETRY_TELEMETRY_HH
