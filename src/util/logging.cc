#include "util/logging.hh"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace ecolo {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::Info)};

} // namespace

void
setLogLevel(LogLevel level)
{
    g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        g_log_level.load(std::memory_order_relaxed));
}

bool
parseLogLevel(const std::string &name, LogLevel &out)
{
    if (name == "error")
        out = LogLevel::Error;
    else if (name == "warn")
        out = LogLevel::Warn;
    else if (name == "info")
        out = LogLevel::Info;
    else if (name == "debug")
        out = LogLevel::Debug;
    else
        return false;
    return true;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cout << "info: " << msg << std::endl;
}

void
debugImpl(const std::string &msg)
{
    std::cerr << "debug: " << msg << std::endl;
}

} // namespace detail
} // namespace ecolo
