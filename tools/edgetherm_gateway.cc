/**
 * @file
 * edgetherm-gateway: the HTTP/JSON coordinator in front of a sharded
 * edgetherm-serve cluster.
 *
 *   edgetherm_gateway --port 7470 \
 *       --workers 127.0.0.1:7471,127.0.0.1:7472
 *
 * Options:
 *   --port N            listen on 127.0.0.1:N (0 = ephemeral; the
 *                       chosen port is printed either way)
 *   --workers LIST      comma-separated host:port worker endpoints
 *                       (required; IPv6 literals as [addr]:port)
 *   --forwarders N      concurrent worker RPCs (default 4 per worker)
 *   --max-connections N client connection cap (default 128)
 *   --idle-timeout-ms N reap idle keep-alive clients (default 30000)
 *   --max-body-bytes N  request body cap (default 1 MiB)
 *   --retry-attempts N  per-worker submit attempts (default 3)
 *   --receive-timeout-ms N  worker conversation timeout (default 30000)
 *   --probe-interval-ms N   unhealthy-worker re-probe cadence
 *   --chaos FILE        seed-reproducible network fault schedule applied
 *                       to both client-facing and worker-facing sockets
 *   --metrics-out FILE  dump gateway.* metrics JSON on exit
 *   --log-level LEVEL   error | warn | info | debug
 *   --help              this text
 *
 * Drains on SIGTERM/SIGINT: the listener closes, streaming and queued
 * runs finish against the workers, then the process exits 0. Exit
 * status follows edgetherm_cli's contract: 0 success, 1 runtime
 * failure, 2 usage error.
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
#include "gateway/gateway.hh"
#include "util/logging.hh"

namespace {

using namespace ecolo;

// Signal handlers may only touch lock-free atomics; the main loop polls.
std::atomic<int> g_signal{0};

void
onSignal(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
}

struct GatewayCliOptions
{
    gateway::GatewayOptions gateway;
    std::string workersText;
    std::string metricsOut;
    std::string chaosFile;
};

void
printUsage(std::ostream &os)
{
    os << "usage: edgetherm_gateway --workers HOST:PORT[,HOST:PORT...]\n"
          "                         [--port N] [--forwarders N]\n"
          "                         [--max-connections N]\n"
          "                         [--idle-timeout-ms N]\n"
          "                         [--max-body-bytes N]\n"
          "                         [--retry-attempts N]\n"
          "                         [--receive-timeout-ms N]\n"
          "                         [--probe-interval-ms N]\n"
          "                         [--chaos FILE] [--metrics-out FILE]\n"
          "                         [--log-level LEVEL] [--help]\n";
}

template <typename... Args>
[[noreturn]] void
usageError(Args &&...args)
{
    printUsage(std::cerr);
    std::cerr << "edgetherm_gateway: ";
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

GatewayCliOptions
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

    GatewayCliOptions opts;
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
            opts.gateway.port = static_cast<std::uint16_t>(port);
        } else if (std::strcmp(arg, "--workers") == 0) {
            opts.workersText = need_value(i, arg);
        } else if (std::strcmp(arg, "--forwarders") == 0) {
            opts.gateway.numForwarders = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--max-connections") == 0) {
            opts.gateway.maxConnections = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--idle-timeout-ms") == 0) {
            opts.gateway.idleTimeoutMs = static_cast<int>(
                parseLongArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--max-body-bytes") == 0) {
            opts.gateway.http.maxBodyBytes = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--retry-attempts") == 0) {
            opts.gateway.pool.retry.maxAttempts =
                static_cast<std::size_t>(
                    parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--receive-timeout-ms") == 0) {
            opts.gateway.pool.receiveTimeoutMs = static_cast<int>(
                parseLongArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--probe-interval-ms") == 0) {
            opts.gateway.pool.probeIntervalMs = static_cast<int>(
                parseLongArg(arg, need_value(i, arg)));
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
    if (opts.workersText.empty())
        usageError("--workers is required");
    auto workers = gateway::parseWorkerList(opts.workersText);
    if (!workers.ok())
        usageError(workers.error().message);
    opts.gateway.workers = workers.take();
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    GatewayCliOptions opts = parseArgs(argc, argv);

    // A dying peer (client or worker) must never take the gateway down.
    std::signal(SIGPIPE, SIG_IGN);

    if (!opts.chaosFile.empty()) {
        auto schedule = faults::loadChaosScheduleFile(opts.chaosFile);
        if (!schedule.ok()) {
            std::cerr << "edgetherm_gateway: "
                      << schedule.error().describe() << "\n";
            return 1;
        }
        if (auto injector =
                faults::installGlobalChaosInjector(schedule.value())) {
            ecolo::inform("edgetherm-gateway: chaos enabled (",
                          schedule.value().size(), " rule(s), seed ",
                          schedule.value().seed(), ")");
        }
    }

    gateway::Gateway gw(std::move(opts.gateway));
    if (auto started = gw.start(); !started.ok()) {
        std::cerr << "edgetherm_gateway: " << started.error().describe()
                  << "\n";
        return 1;
    }
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    while (g_signal.load(std::memory_order_relaxed) == 0 &&
           !gw.drainRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (const int sig = g_signal.load(std::memory_order_relaxed);
        sig != 0) {
        ecolo::inform("edgetherm-gateway: received ",
                      sig == SIGTERM ? "SIGTERM" : "signal",
                      ", draining");
    }

    // Snapshot before teardown: every stat is an atomic owned by a
    // locked registry, so the document renders while the event loop
    // runs, and the drained gateway has nothing new to say.
    const std::string metrics = gw.metricsJson();
    gw.requestDrain();
    gw.waitUntilStopped();

    const auto count = [&gw](const char *name) {
        return telemetry::statValue(gw.find(name));
    };
    ecolo::inform("edgetherm-gateway: drained (",
                  count("gateway.http.requests"), " requests, ",
                  count("gateway.http.responses_2xx"), " ok, ",
                  count("gateway.http.responses_4xx") +
                      count("gateway.http.responses_5xx"),
                  " errors)");

    if (!opts.metricsOut.empty()) {
        std::ofstream os(opts.metricsOut, std::ios::trunc);
        if (!os) {
            std::cerr
                << "edgetherm_gateway: cannot open metrics file: "
                << opts.metricsOut << "\n";
            return 1;
        }
        os << metrics;
        if (!os) {
            std::cerr
                << "edgetherm_gateway: short write to metrics file: "
                << opts.metricsOut << "\n";
            return 1;
        }
    }
    return 0;
}
