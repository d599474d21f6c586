/**
 * @file
 * Minimal status/error reporting in the spirit of gem5's logging.hh.
 *
 * - panic():  an internal invariant was violated (a bug in EdgeTherm);
 *             aborts so debuggers/core dumps see the failure point.
 * - fatal():  the configuration or input is invalid (the user's fault);
 *             exits with an error code.
 * - warn():   something is questionable but simulation can continue.
 * - inform(): plain status output.
 * - debugLog(): chatty diagnostics, silent unless --log-level=debug.
 *
 * warn/inform/debugLog respect a process-wide LogLevel (default Info).
 * panic/fatal always print: suppressing the reason for dying would be
 * worse than any log noise.
 *
 * Per-slot diagnostics (a faulty sensor warns every simulated minute of a
 * 525,600-slot year) must use ECOLO_WARN_ONCE or ECOLO_WARN_RATE_LIMITED
 * so a year-long degraded run cannot emit hundreds of thousands of
 * duplicate lines. Both keep their state per call site and process-wide:
 * the second simulation in one process stays suppressed, which is the
 * point -- the operator already knows.
 */

#ifndef ECOLO_UTIL_LOGGING_HH
#define ECOLO_UTIL_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace ecolo {

/** Severity threshold for warn/inform/debugLog output. */
enum class LogLevel : int
{
    Error = 0, //!< only panics/fatals (they always print)
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Set the process-wide log level (e.g. from --log-level). */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/**
 * Parse "error" | "warn" | "info" | "debug" (case-sensitive). Returns
 * false and leaves `out` untouched on anything else.
 */
bool parseLogLevel(const std::string &name, LogLevel &out);

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Abort on an internal invariant violation. */
#define ECOLO_PANIC(...) \
    ::ecolo::detail::panicImpl(__FILE__, __LINE__, \
        ::ecolo::detail::formatMessage(__VA_ARGS__))

/** Exit on invalid user configuration or input. */
#define ECOLO_FATAL(...) \
    ::ecolo::detail::fatalImpl(__FILE__, __LINE__, \
        ::ecolo::detail::formatMessage(__VA_ARGS__))

/** Like assert, but always compiled in and with a formatted message. */
#define ECOLO_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ECOLO_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (false)

template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() < LogLevel::Warn)
        return;
    detail::warnImpl(detail::formatMessage(std::forward<Args>(args)...));
}

template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() < LogLevel::Info)
        return;
    detail::informImpl(detail::formatMessage(std::forward<Args>(args)...));
}

template <typename... Args>
void
debugLog(Args &&...args)
{
    if (logLevel() < LogLevel::Debug)
        return;
    detail::debugImpl(detail::formatMessage(std::forward<Args>(args)...));
}

/**
 * Warn exactly once per call site for the process lifetime. The message
 * is only formatted when it will actually print.
 */
#define ECOLO_WARN_ONCE(...) \
    do { \
        static ::std::atomic<bool> ecolo_warned_once_{false}; \
        if (!ecolo_warned_once_.exchange(true, \
                                         ::std::memory_order_relaxed)) { \
            ::ecolo::warn(__VA_ARGS__); \
        } \
    } while (false)

/**
 * Warn at most `max_count_` times per call site, then print one final
 * "further warnings suppressed" notice and go quiet. Thread-safe.
 */
#define ECOLO_WARN_RATE_LIMITED(max_count_, ...) \
    do { \
        static ::std::atomic<std::uint64_t> ecolo_warn_count_{0}; \
        const std::uint64_t ecolo_warn_seen_ = \
            ecolo_warn_count_.fetch_add(1, ::std::memory_order_relaxed); \
        if (ecolo_warn_seen_ < static_cast<std::uint64_t>(max_count_)) { \
            ::ecolo::warn(__VA_ARGS__); \
        } else if (ecolo_warn_seen_ == \
                   static_cast<std::uint64_t>(max_count_)) { \
            ::ecolo::warn(__VA_ARGS__, \
                          " (further warnings from this site " \
                          "suppressed)"); \
        } \
    } while (false)

} // namespace ecolo

#endif // ECOLO_UTIL_LOGGING_HH
