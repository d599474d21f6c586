/**
 * @file
 * edgetherm-serve: run simulations as a service over edgetherm-rpc-v2.
 *
 *   edgetherm_serve --port 4590 --workers 4 --drain-dir /var/spool/et
 *
 * Options:
 *   --port N          listen on 127.0.0.1:N (0 = ephemeral; the chosen
 *                     port is printed either way)
 *   --workers N       concurrent simulations (default 2)
 *   --max-queued N    admission bound across both lanes (default 32)
 *   --cache-mb N      result-cache budget in MiB (default 32)
 *   --cache-entries N result-cache entry budget (default 1024)
 *   --retry-after-ms N  backpressure hint for rejected clients
 *   --status-every N  STATUS frame granularity in simulated minutes
 *   --drain-dir DIR   on drain, checkpoint in-flight runs here instead
 *                     of running them to their horizon
 *   --journal-dir DIR write-ahead journal admitted requests here; a
 *                     restarted server replays unfinished ones
 *   --chaos FILE      seed-reproducible network fault schedule applied
 *                     to every connection (chaos.* keys; see
 *                     docs/serving.md)
 *   --metrics-out FILE  dump the serve.* metrics JSON on exit
 *   --log-level LEVEL error | warn | info | debug
 *   --help            this text
 *
 * The server drains on SIGTERM/SIGINT or a SHUTDOWN frame: admission
 * stops, accepted work finishes (or checkpoints into --drain-dir), then
 * the process exits 0. Exit status follows edgetherm_cli's contract:
 * 0 success, 1 runtime failure, 2 usage error.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "faults/chaos.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/socket.hh"

namespace {

using namespace ecolo;

// Signal handlers may only touch lock-free atomics; the main loop polls.
std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

struct ServeCliOptions
{
    serve::ServerOptions server;
    std::string metricsOut;
    std::string chaosFile;
};

void
printUsage(std::ostream &os)
{
    os << "usage: edgetherm_serve [--port N] [--workers N]\n"
          "                       [--max-queued N] [--cache-mb N]\n"
          "                       [--cache-entries N] "
          "[--retry-after-ms N]\n"
          "                       [--status-every MINUTES] "
          "[--drain-dir DIR]\n"
          "                       [--journal-dir DIR] [--chaos FILE]\n"
          "                       [--metrics-out FILE] "
          "[--log-level LEVEL]\n"
          "                       [--help]\n";
}

template <typename... Args>
[[noreturn]] void
usageError(Args &&...args)
{
    printUsage(std::cerr);
    std::cerr << "edgetherm_serve: ";
    (std::cerr << ... << std::forward<Args>(args));
    std::cerr << "\n";
    std::exit(2);
}

long
parseLongArg(const char *flag, const char *text)
{
    try {
        std::size_t pos = 0;
        const long v = std::stol(text, &pos);
        if (pos != std::strlen(text))
            usageError("invalid integer for ", flag, ": '", text, "'");
        return v;
    } catch (const std::invalid_argument &) {
        usageError("invalid integer for ", flag, ": '", text, "'");
    } catch (const std::out_of_range &) {
        usageError("out-of-range integer for ", flag, ": '", text, "'");
    }
}

long
parsePositiveArg(const char *flag, const char *text)
{
    const long v = parseLongArg(flag, text);
    if (v < 1)
        usageError(flag, " must be at least 1, got ", v);
    return v;
}

ServeCliOptions
parseArgs(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string raw = argv[i];
        const auto eq = raw.find('=');
        if (raw.rfind("--", 0) == 0 && eq != std::string::npos) {
            args.push_back(raw.substr(0, eq));
            args.push_back(raw.substr(eq + 1));
        } else {
            args.push_back(raw);
        }
    }

    ServeCliOptions opts;
    const std::size_t n = args.size();
    auto need_value = [&](std::size_t &i,
                          const std::string &flag) -> const char * {
        if (i + 1 >= n)
            usageError("missing value for ", flag);
        return args[++i].c_str();
    };
    for (std::size_t i = 0; i < n; ++i) {
        const char *arg = args[i].c_str();
        if (std::strcmp(arg, "--port") == 0) {
            const long port = parseLongArg(arg, need_value(i, arg));
            if (port < 0 || port > 65535)
                usageError("--port must be in [0, 65535], got ", port);
            opts.server.port = static_cast<std::uint16_t>(port);
        } else if (std::strcmp(arg, "--workers") == 0) {
            opts.server.numWorkers = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--max-queued") == 0) {
            opts.server.maxQueued = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--cache-mb") == 0) {
            opts.server.cacheMaxBytes =
                static_cast<std::size_t>(
                    parsePositiveArg(arg, need_value(i, arg)))
                << 20;
        } else if (std::strcmp(arg, "--cache-entries") == 0) {
            opts.server.cacheMaxEntries = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--retry-after-ms") == 0) {
            opts.server.retryAfterMs = static_cast<std::uint32_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--status-every") == 0) {
            opts.server.statusEveryMinutes =
                parsePositiveArg(arg, need_value(i, arg));
        } else if (std::strcmp(arg, "--drain-dir") == 0) {
            opts.server.drainCheckpointDir = need_value(i, arg);
        } else if (std::strcmp(arg, "--journal-dir") == 0) {
            opts.server.journalDir = need_value(i, arg);
        } else if (std::strcmp(arg, "--chaos") == 0) {
            opts.chaosFile = need_value(i, arg);
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            opts.metricsOut = need_value(i, arg);
        } else if (std::strcmp(arg, "--log-level") == 0) {
            const std::string text = need_value(i, arg);
            LogLevel level;
            if (!parseLogLevel(text, level)) {
                usageError("unknown --log-level '", text,
                           "' (expected error|warn|info|debug)");
            }
            setLogLevel(level);
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            printUsage(std::cout);
            std::exit(0);
        } else {
            usageError("unknown option: ", arg);
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const ServeCliOptions opts = parseArgs(argc, argv);

    // Server::start() also installs this, but do it before any socket
    // exists: a dying peer must never take the service down.
    std::signal(SIGPIPE, SIG_IGN);

    if (!opts.chaosFile.empty()) {
        auto schedule = faults::loadChaosScheduleFile(opts.chaosFile);
        if (!schedule.ok()) {
            std::cerr << "edgetherm_serve: "
                      << schedule.error().describe() << "\n";
            return 1;
        }
        if (auto injector =
                faults::installGlobalChaosInjector(schedule.value())) {
            ecolo::inform("edgetherm-serve: chaos enabled (",
                          schedule.value().size(), " rule(s), seed ",
                          schedule.value().seed(), ")");
        }
    }

    serve::Server server(opts.server);
    if (auto started = server.start(); !started.ok()) {
        std::cerr << "edgetherm_serve: " << started.error().describe()
                  << "\n";
        return 1;
    }
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    // Drain on whichever comes first: a signal or a SHUTDOWN frame.
    while (g_signal.load(std::memory_order_relaxed) == 0 &&
           !server.drainRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (const int sig = g_signal.load(std::memory_order_relaxed);
        sig != 0) {
        ecolo::inform("edgetherm-serve: received ",
                      sig == SIGTERM ? "SIGTERM" : "signal", ", draining");
    }
    server.requestDrain();
    server.waitUntilStopped();

    const auto count = [&server](const char *name) {
        return telemetry::statValue(server.find(name));
    };
    ecolo::inform("edgetherm-serve: drained (",
                  count("serve.requests.completed"), " completed, ",
                  count("serve.requests.cancelled"), " cancelled, ",
                  count("serve.cache.hits"), " cache hits)");

    if (!opts.metricsOut.empty()) {
        std::ofstream os(opts.metricsOut, std::ios::trunc);
        if (!os) {
            std::cerr << "edgetherm_serve: cannot open metrics file: "
                      << opts.metricsOut << "\n";
            return 1;
        }
        os << server.metricsJson();
        if (!os) {
            std::cerr << "edgetherm_serve: short write to metrics file: "
                      << opts.metricsOut << "\n";
            return 1;
        }
    }
    return 0;
}
