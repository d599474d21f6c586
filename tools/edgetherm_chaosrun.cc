/**
 * @file
 * edgetherm_chaosrun: the chaos invariant harness for edgetherm-serve.
 *
 * Starts an in-process server, installs a seed-reproducible network
 * chaos schedule on every socket in the process (both the server's and
 * the clients' ends), then hammers the server from concurrent client
 * threads using the retrying client. Every request's expected report is
 * rendered up front by driving the simulation engine directly, so the
 * harness can assert the serving invariant exactly:
 *
 *   every submitted request terminates with either a byte-identical
 *   report or a typed error -- never silence, and never wrong bytes.
 *
 * Transport failures mid-conversation are what the chaos layer injects
 * on purpose; the retrying client is expected to absorb them (the
 * content-addressed cache makes re-submits idempotent). A request whose
 * retries are exhausted without a typed answer counts as a violation,
 * as does a completed report whose bytes differ from the reference.
 *
 *   edgetherm_chaosrun --seed 7 --requests 48 --threads 8 \
 *                      --metrics-out tail_latency.json
 *
 * Options:
 *   --seed N          chaos + jitter master seed (default 1)
 *   --requests N      total submits across all threads (default 24)
 *   --threads N       concurrent client threads (default 4)
 *   --retries N       per-request submit attempts (default 12)
 *   --timeout-ms N    per-connection receive timeout (default 5000)
 *   --chaos FILE      chaos schedule file; default: a built-in mixed
 *                     schedule (delays, short ops, drops, resets,
 *                     truncated frames) seeded from --seed
 *   --journal-dir DIR run the server with a write-ahead request journal
 *   --metrics-out FILE  dump the server's metrics JSON (includes
 *                     serve.latency.* per-lane tail latencies)
 *   --slo-p99-interactive-ms N  fail if the interactive lane's p99
 *                     exceeds this (measured at the server)
 *   --slo-p99-batch-ms N        same for the batch lane
 *   --quiet           summary only
 *   --help            this text
 *
 * Exit status: 0 invariant (and SLOs) held; 1 violation or runtime
 * failure; 2 usage error.
 */

#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "faults/chaos.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/sim_time.hh"

namespace {

using namespace ecolo;

struct ChaosRunOptions
{
    std::uint64_t seed = 1;
    std::size_t requests = 24;
    std::size_t threads = 4;
    std::size_t retries = 12;
    int timeoutMs = 5000;
    std::string chaosFile;
    std::string journalDir;
    std::string metricsOut;
    long sloP99InteractiveMs = 0; //!< 0 = not asserted
    long sloP99BatchMs = 0;
    bool quiet = false;
};

void
printUsage(std::ostream &os)
{
    os << "usage: edgetherm_chaosrun [--seed N] [--requests N] "
          "[--threads N]\n"
          "                          [--retries N] [--timeout-ms N]\n"
          "                          [--chaos FILE] [--journal-dir DIR]\n"
          "                          [--metrics-out FILE]\n"
          "                          [--slo-p99-interactive-ms N]\n"
          "                          [--slo-p99-batch-ms N] [--quiet] "
          "[--help]\n";
}

template <typename... Args>
[[noreturn]] void
usageError(Args &&...args)
{
    printUsage(std::cerr);
    std::cerr << "edgetherm_chaosrun: ";
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

ChaosRunOptions
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

    ChaosRunOptions opts;
    const std::size_t n = args.size();
    auto need_value = [&](std::size_t &i,
                          const std::string &flag) -> const char * {
        if (i + 1 >= n)
            usageError("missing value for ", flag);
        return args[++i].c_str();
    };
    for (std::size_t i = 0; i < n; ++i) {
        const char *arg = args[i].c_str();
        if (std::strcmp(arg, "--seed") == 0) {
            opts.seed = static_cast<std::uint64_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--requests") == 0) {
            opts.requests = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--threads") == 0) {
            opts.threads = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--retries") == 0) {
            opts.retries = static_cast<std::size_t>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--timeout-ms") == 0) {
            opts.timeoutMs = static_cast<int>(
                parsePositiveArg(arg, need_value(i, arg)));
        } else if (std::strcmp(arg, "--chaos") == 0) {
            opts.chaosFile = need_value(i, arg);
        } else if (std::strcmp(arg, "--journal-dir") == 0) {
            opts.journalDir = need_value(i, arg);
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            opts.metricsOut = need_value(i, arg);
        } else if (std::strcmp(arg, "--slo-p99-interactive-ms") == 0) {
            opts.sloP99InteractiveMs =
                parsePositiveArg(arg, need_value(i, arg));
        } else if (std::strcmp(arg, "--slo-p99-batch-ms") == 0) {
            opts.sloP99BatchMs =
                parsePositiveArg(arg, need_value(i, arg));
        } else if (std::strcmp(arg, "--quiet") == 0) {
            opts.quiet = true;
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

/**
 * The default chaos mix: every fault kind, bounded by maxTriggers so a
 * finite retry budget always outlasts the destructive rules.
 */
faults::ChaosSchedule
builtinSchedule(std::uint64_t seed)
{
    faults::ChaosSchedule schedule;
    schedule.setSeed(seed);
    const auto add = [&schedule](faults::ChaosRule rule) {
        if (auto added = schedule.add(rule); !added.ok())
            ECOLO_FATAL("builtin chaos rule invalid: ",
                        added.error().message);
    };
    faults::ChaosRule delay;
    delay.kind = faults::ChaosKind::Delay;
    delay.op = faults::ChaosOp::Write;
    delay.probability = 0.05;
    delay.delayMs = 20;
    delay.maxTriggers = 40;
    add(delay);
    faults::ChaosRule short_op;
    short_op.kind = faults::ChaosKind::ShortOp;
    short_op.op = faults::ChaosOp::Both;
    short_op.probability = 0.2;
    short_op.maxBytes = 7;
    add(short_op);
    faults::ChaosRule drop;
    drop.kind = faults::ChaosKind::Drop;
    drop.op = faults::ChaosOp::Write;
    drop.everyOps = 97;
    drop.maxTriggers = 3;
    add(drop);
    faults::ChaosRule reset;
    reset.kind = faults::ChaosKind::Reset;
    reset.op = faults::ChaosOp::Write;
    reset.everyOps = 131;
    reset.afterOps = 50;
    reset.maxTriggers = 3;
    add(reset);
    faults::ChaosRule truncate;
    truncate.kind = faults::ChaosKind::Truncate;
    truncate.op = faults::ChaosOp::Write;
    truncate.everyOps = 181;
    truncate.maxTriggers = 2;
    truncate.maxBytes = 16;
    add(truncate);
    return schedule;
}

/** One submit target plus its pre-rendered reference report. */
struct Workload
{
    serve::RequestSpec spec;
    std::string expected;
};

/**
 * Render the report the server must produce, by the same path the
 * server takes: default config, named policy (server-default param),
 * run to the horizon, markdown report.
 */
util::Result<std::string>
renderReference(const std::string &policy_name,
                std::int64_t horizon_minutes)
{
    core::SimulationConfig config = core::SimulationConfig::paperDefault();
    ECOLO_TRY_VOID(config.validated());
    const double param = core::defaultPolicyParam(policy_name);
    auto policy = core::tryMakePolicyByName(config, policy_name, param);
    if (!policy)
        return policy.error();
    core::Simulation sim(config, policy.take());
    sim.run(horizon_minutes);
    std::ostringstream os;
    core::ReportInputs inputs;
    inputs.policyName = policy_name;
    inputs.policyParameter = param;
    inputs.simulatedDays = static_cast<double>(horizon_minutes) /
                           static_cast<double>(kMinutesPerDay);
    core::writeMarkdownReport(os, config, sim.metrics(), inputs);
    return os.str();
}

struct Tally
{
    std::atomic<std::uint64_t> completedMatch{0};
    std::atomic<std::uint64_t> completedMismatch{0};
    std::atomic<std::uint64_t> typedErrors{0};
    std::atomic<std::uint64_t> backpressured{0};
    std::atomic<std::uint64_t> transportExhausted{0};
    std::atomic<std::uint64_t> unexpectedOutcomes{0};
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> cacheHits{0};
};

} // namespace

int
main(int argc, char **argv)
{
    const ChaosRunOptions opts = parseArgs(argc, argv);

    // The distinct request shapes; duplicates across the request stream
    // exercise the result cache under chaos. Short horizons keep the
    // reference renders and the serving runs fast.
    const struct
    {
        const char *policy;
        std::int64_t days;
        serve::Priority priority;
    } kShapes[] = {
        {"standby", 1, serve::Priority::Interactive},
        {"myopic", 1, serve::Priority::Interactive},
        {"standby", 2, serve::Priority::Batch},
        {"foresighted", 1, serve::Priority::Batch},
    };

    std::vector<Workload> workloads;
    for (const auto &shape : kShapes) {
        Workload w;
        w.spec.policy = shape.policy;
        w.spec.priority = shape.priority;
        w.spec.horizonMinutes = shape.days * kMinutesPerDay;
        auto expected =
            renderReference(shape.policy, w.spec.horizonMinutes);
        if (!expected.ok()) {
            std::cerr << "edgetherm_chaosrun: reference render failed: "
                      << expected.error().describe() << "\n";
            return 1;
        }
        w.expected = expected.take();
        workloads.push_back(std::move(w));
    }

    // Chaos goes in before the server binds so every socket -- both
    // ends of every conversation -- sees the schedule.
    faults::ChaosSchedule schedule;
    if (!opts.chaosFile.empty()) {
        auto loaded = faults::loadChaosScheduleFile(opts.chaosFile);
        if (!loaded.ok()) {
            std::cerr << "edgetherm_chaosrun: "
                      << loaded.error().describe() << "\n";
            return 1;
        }
        schedule = loaded.take();
        schedule.setSeed(opts.seed);
    } else {
        schedule = builtinSchedule(opts.seed);
    }
    auto injector = faults::installGlobalChaosInjector(schedule);

    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.numWorkers = 2;
    server_options.maxQueued = opts.requests + opts.threads;
    server_options.journalDir = opts.journalDir;
    serve::Server server(server_options);
    if (auto started = server.start(); !started.ok()) {
        std::cerr << "edgetherm_chaosrun: server start failed: "
                  << started.error().describe() << "\n";
        return 1;
    }

    Tally tally;
    std::atomic<std::size_t> nextRequest{0};
    std::mutex report_mutex; // serializes violation reports on stderr

    const auto worker = [&](std::size_t thread_index) {
        serve::ServeClient client(server.port());
        client.setReceiveTimeoutMs(opts.timeoutMs);
        serve::RetryPolicy retry;
        retry.maxAttempts = opts.retries;
        retry.baseBackoffMs = 10;
        retry.maxBackoffMs = 500;
        retry.jitterSeed = opts.seed ^ (0x9e37u + thread_index);
        for (;;) {
            const std::size_t index =
                nextRequest.fetch_add(1, std::memory_order_relaxed);
            if (index >= opts.requests)
                return;
            const Workload &w = workloads[index % workloads.size()];
            serve::RequestSpec spec = w.spec;
            spec.clientId = "chaos-" + std::to_string(thread_index);
            std::size_t attempts = 0;
            bool cache_hit = false;
            auto outcome = client.submitWithRetry(
                spec, retry, &attempts,
                [&cache_hit](std::uint64_t,
                             const serve::AcceptedPayload &accepted) {
                    cache_hit = accepted.cacheHit;
                });
            tally.attempts.fetch_add(attempts,
                                     std::memory_order_relaxed);
            if (!outcome.ok()) {
                tally.transportExhausted.fetch_add(
                    1, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(report_mutex);
                std::cerr << "VIOLATION: request " << index << " ("
                          << spec.policy
                          << "): no typed answer after " << attempts
                          << " attempts: "
                          << outcome.error().message << "\n";
                continue;
            }
            const serve::SubmitOutcome &result = outcome.value();
            switch (result.status) {
            case serve::OutcomeStatus::Completed:
                if (cache_hit)
                    tally.cacheHits.fetch_add(1,
                                              std::memory_order_relaxed);
                if (result.report == w.expected) {
                    tally.completedMatch.fetch_add(
                        1, std::memory_order_relaxed);
                } else {
                    tally.completedMismatch.fetch_add(
                        1, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(report_mutex);
                    std::cerr << "VIOLATION: request " << index << " ("
                              << spec.policy << "): report differs from "
                              << "the reference (" << result.report.size()
                              << " vs " << w.expected.size()
                              << " bytes)\n";
                }
                break;
            case serve::OutcomeStatus::Error:
                tally.typedErrors.fetch_add(1,
                                            std::memory_order_relaxed);
                break;
            case serve::OutcomeStatus::RetryLater:
                tally.backpressured.fetch_add(1,
                                              std::memory_order_relaxed);
                break;
            default:
                tally.unexpectedOutcomes.fetch_add(
                    1, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(report_mutex);
                std::cerr << "VIOLATION: request " << index << " ("
                          << spec.policy << "): unexpected outcome "
                          << toString(result.status) << "\n";
                break;
            }
        }
    };

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < opts.threads; ++t)
        threads.emplace_back(worker, t);
    for (std::thread &thread : threads)
        thread.join();

    // Drain before snapshotting: the RESULT frame is written before the
    // job's latency/journal accounting runs, so a snapshot taken the
    // moment the last client returns could still miss it.
    server.requestDrain();
    server.waitUntilStopped();
    const std::string metrics = server.metricsJson();
    const auto interactive =
        telemetry::asTail(server.find("serve.latency.interactive"))
            ->snapshot();
    const auto batch =
        telemetry::asTail(server.find("serve.latency.batch"))->snapshot();

    if (!opts.metricsOut.empty()) {
        std::ofstream os(opts.metricsOut, std::ios::trunc);
        os << metrics;
        if (!os) {
            std::cerr << "edgetherm_chaosrun: cannot write metrics to "
                      << opts.metricsOut << "\n";
            return 1;
        }
    }

    const std::uint64_t violations =
        tally.completedMismatch.load() + tally.transportExhausted.load() +
        tally.unexpectedOutcomes.load();
    if (!opts.quiet) {
        const auto lane = [](const char *name,
                             const telemetry::TailLatency::Snapshot &s) {
            std::cerr << "  " << name << ": n=" << s.count
                      << " p50=" << s.p50 / 1000.0
                      << "ms p95=" << s.p95 / 1000.0
                      << "ms p99=" << s.p99 / 1000.0
                      << "ms jitter=" << s.jitter / 1000.0 << "ms\n";
        };
        std::cerr << "chaosrun: seed " << opts.seed << ", "
                  << opts.requests << " requests, " << opts.threads
                  << " threads, " << tally.attempts.load()
                  << " attempts\n"
                  << "  completed " << tally.completedMatch.load()
                  << " byte-identical (" << tally.cacheHits.load()
                  << " cache hits), " << tally.typedErrors.load()
                  << " typed errors, " << tally.backpressured.load()
                  << " backpressured\n";
        lane("interactive", interactive);
        lane("batch", batch);
        if (injector) {
            const auto stats = injector->stats();
            std::cerr << "  chaos: " << stats.injected()
                      << " faults injected over " << stats.readOps
                      << " read + " << stats.writeOps << " write ops ("
                      << stats.delays << " delays, " << stats.shortOps
                      << " short ops, " << stats.drops << " drops, "
                      << stats.resets << " resets, " << stats.truncates
                      << " truncates)\n";
        }
    }

    bool slo_failed = false;
    const auto check_slo = [&](const char *name, long limit_ms,
                               double p99_us) {
        if (limit_ms > 0 && p99_us > static_cast<double>(limit_ms) * 1000.0) {
            std::cerr << "SLO VIOLATION: " << name << " p99 "
                      << p99_us / 1000.0 << "ms > " << limit_ms
                      << "ms\n";
            slo_failed = true;
        }
    };
    check_slo("interactive", opts.sloP99InteractiveMs, interactive.p99);
    check_slo("batch", opts.sloP99BatchMs, batch.p99);

    if (violations > 0) {
        std::cerr << "edgetherm_chaosrun: " << violations
                  << " invariant violation(s)\n";
        return 1;
    }
    if (tally.completedMatch.load() == 0) {
        std::cerr << "edgetherm_chaosrun: vacuous run -- nothing "
                     "completed\n";
        return 1;
    }
    if (slo_failed)
        return 1;
    std::cerr << "chaosrun: invariant held (" << tally.completedMatch.load()
              << " byte-identical completions, 0 silent failures)\n";
    return 0;
}
