/**
 * @file
 * e2e_bench: one seeded end-to-end run of the serving deployment.
 *
 *   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--scale F] [--out DIR]
 *
 * Starts the deployment three times from cold to measure set-up, warms
 * the workload's caches, drives it for --seconds, checks every answer
 * (and a seeded sample against an in-process render), drains the stack,
 * and prints each metric as `workload metric value unit`. The last line
 * of standard output is one JSON object:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 *
 * holding the end-to-end metrics, or with --trace 1 the per-layer
 * metrics from the in-process replay. A per-run JSON file, and in trace
 * mode a Chrome trace and the budget table, go under --out. Exits 0 only
 * when every answer was correct and the run was valid.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client.hh"
#include "replay.hh"
#include "stack.hh"
#include "util/parallel.hh"
#include "workloads.hh"

namespace {

using namespace e2e;
using Clock = std::chrono::steady_clock;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json (run.sh --smoke checks the names).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"requests_per_sec", "req/s"},
    {"sim_minutes_per_sec", "min/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"cpu_ms_per_request", "ms"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"core.setup_cold_ms", "ms"},
    {"trace.generate_ms", "ms"},
    {"power.scale_ms", "ms"},
    {"thermal.matrix_ms", "ms"},
    {"thermal.factorize_ms", "ms"},
    {"core.setup_warm_ms", "ms"},
    {"core.report.render_us", "us"},
    {"serve.result_cache.insert_us", "us"},
    {"core.lane_loop_ns_per_slot", "ns"},
    {"serve.batch.occupancy_mean", "lanes"},
    {"core.loop_ns_per_slot", "ns"},
    {"thermal.step_ns_per_slot", "ns"},
    {"sidechannel.estimate_ns_per_slot", "ns"},
    {"gateway.http.parse_us", "us"},
    {"gateway.http.respond_us", "us"},
    {"gateway.http.io_us", "us"},
    {"gateway.json.parse_us", "us"},
    {"gateway.json.quote_us", "us"},
    {"gateway.cluster.rank_us", "us"},
    {"serve.prepare_us", "us"},
    {"serve.protocol.submit_us", "us"},
    {"serve.protocol.result_us", "us"},
    {"serve.rpc.roundtrip_us", "us"},
    {"serve.result_cache.lookup_us", "us"},
    {"serve.journal.append_us", "us"},
    {"gateway.route_runs_p50_us", "us"},
    {"serve.scheduler.queue_wait_mean_ms", "ms"},
    {"serve.result_cache.hit_ratio", "ratio"},
    {"core.setup_cache.hit_ratio", "ratio"},
    {"gateway.forward.retry_later", "count"},
    {"gateway.forward.failovers", "count"},
    {"gateway.forward.transport_errors", "count"},
    {"budget.unattributed_frac", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.latency_p99_ms", "ms"},
    {"loadgen.failed_frac", "ratio"},
    {"loadgen.slo_miss_frac", "ratio"},
};

/** The open loop is invalid when the generator itself ran late. */
constexpr double kMaxLagP99Ms = 50.0;

/**
 * Closed-loop rates are medians over this many equal windows of the
 * timed phase: the host's CPU speed has bursts of tens of percent, and
 * one slow window should not move the result. Latency percentiles pool
 * the whole phase, which keeps enough samples beyond p90.
 */
constexpr int kWindows = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string out = "build-bench/e2e-runs";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "usage: e2e_bench --workload "
                 "cold_interactive|sweep_batched|long_horizon|warm_hits\n"
                 "                 [--seed N] [--seconds S] [--trace 0|1]"
                 " [--scale F] [--out DIR]\n"
              << "e2e_bench: " << why << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (!(o.seconds > 0.0 && o.seconds <= 120.0))
                usage("--seconds must be in (0, 120]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--scale") {
            o.scale = std::strtod(value.c_str(), &end);
            if (!(o.scale > 0.0 && o.scale <= 1.0))
                usage("--scale must be in (0, 1]");
        } else if (flag == "--out") {
            o.out = value;
        } else {
            usage("unknown option " + flag);
        }
        if (end != nullptr && *end != '\0')
            usage("bad number for " + flag + ": " + value);
    }
    if (std::find_if(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                     [&](const char *n) { return o.workload == n; }) ==
        std::end(kWorkloadNames))
        usage("unknown workload '" + o.workload + "'");
    return o;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** name -> value of every scalar/counter/gauge in a metrics document. */
std::map<std::string, double>
statsOf(const std::string &doc)
{
    std::map<std::string, double> out;
    Json parsed;
    std::string error;
    if (!Json::parse(doc, parsed, error))
        return out;
    const Json *stats = parsed.get("stats");
    if (stats == nullptr)
        return out;
    for (const auto &[name, stat] : stats->members) {
        const Json *v = stat.get("value");
        if (v != nullptr && v->kind == Json::Kind::Number)
            out[name] = v->number;
    }
    return out;
}

/** Sum of `name` over worker stats, or a count-weighted mean when
 * `weight` names the count the value was averaged over. */
double
acrossWorkers(const std::vector<std::map<std::string, double>> &workers,
              const std::string &name, const std::string &weight = "")
{
    double sum = 0.0;
    double weights = 0.0;
    for (const auto &w : workers) {
        const auto v = w.find(name);
        if (v == w.end())
            continue;
        if (weight.empty()) {
            sum += v->second;
            continue;
        }
        const auto c = w.find(weight);
        const double n = c == w.end() ? 0.0 : c->second;
        sum += v->second * n;
        weights += n;
    }
    return weight.empty() ? sum : (weights > 0.0 ? sum / weights : 0.0);
}

bool
makeDir(const std::string &path)
{
    std::string partial;
    std::stringstream ss(path);
    std::string part;
    if (!path.empty() && path[0] == '/')
        partial = "/";
    while (std::getline(ss, part, '/')) {
        if (part.empty())
            continue;
        partial += part + "/";
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

std::string
metricsJson(const std::vector<std::pair<std::string, double>> &values,
            const std::map<std::string, std::string> &units)
{
    std::string out = "{";
    for (const auto &[name, value] : values) {
        if (out.size() > 1)
            out += ',';
        out += jsonString(name);
        out += ":{\"value\":" + jsonDouble(value);
        out += ",\"unit\":" + jsonString(units.at(name)) + "}";
    }
    return out + "}";
}

/** Fail loudly on stderr; the caller decides whether the run survives. */
void
complain(const std::string &what)
{
    std::cerr << "e2e_bench: " << what << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // The 180 s budget per run, with margin: on overrun the process dies
    // and the daemons die with it (PR_SET_PDEATHSIG).
    ::alarm(170);
    // The in-process replay and oracle run their own threads; keep the
    // engine's global pool from adding more.
    ecolo::util::ThreadPool::setGlobalThreads(1);

    const std::string runDir = opt.out + "/" + opt.workload + "-s" +
                               std::to_string(opt.seed) + "-t" +
                               (opt.trace ? "1" : "0") + "-p" +
                               std::to_string(::getpid());
    if (!makeDir(runDir)) {
        complain("cannot create " + runDir);
        return 1;
    }
    const bool smoke = opt.scale < 1.0;
    const double seconds = smoke ? std::max(0.5, opt.seconds * opt.scale)
                                 : opt.seconds;

    std::size_t failed = 0;
    std::size_t attempted = 0;
    bool correct = true;
    std::vector<std::string> problems;
    const auto problem = [&](const std::string &what) {
        correct = false;
        if (problems.size() < 10)
            problems.push_back(what);
        complain(what);
    };

    // ---- Set-up: three cold starts, each to a byte-correct answer ----
    const RunSpec probe = setupProbe();
    Call probeCall;
    probeCall.runs = {probe};
    const int starts = smoke ? 1 : 3;
    std::vector<double> setupTimes;
    std::vector<std::string> probeReports;
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < starts; ++i) {
        const std::string dir = runDir + "/start" + std::to_string(i);
        makeDir(dir);
        stack = std::make_unique<Stack>(dir);
        std::string error;
        const Clock::time_point t0 = Clock::now();
        if (!stack->start(error)) {
            complain("cannot start the deployment: " + error);
            return 1;
        }
        HttpConnection http(stack->gatewayPort());
        const HttpReply reply =
            http.request("POST", "/v1/runs", probeCall.body());
        setupTimes.push_back(secondsSince(t0));
        std::map<std::size_t, std::string> report;
        std::vector<RunOutcome> outcome;
        if (!reply.ok || !checkResponse(probeCall, reply.status, reply.body,
                                        {}, outcome, &report, error)) {
            complain("set-up probe failed: " +
                     (reply.ok ? error : reply.error));
            return 1;
        }
        probeReports.push_back(report.begin()->second);
        if (i + 1 < starts && !stack->stop(error))
            problem("cold start " + std::to_string(i) +
                    " did not drain cleanly: " + error);
    }

    std::vector<std::string> labels;
    for (std::size_t w = 0; w < Stack::kWorkers; ++w)
        labels.push_back(stack->label(w));
    const Placement placement(labels);
    std::unique_ptr<Plan> plan =
        makePlan(opt.workload, opt.seed, seconds, opt.scale, placement);

    // ---- Warm-up (untimed) ----
    {
        std::string error;
        const Clock::time_point t0 = Clock::now();
        if (!runCalls(stack->gatewayPort(), plan->warmup(),
                      plan->connections() < 2 ? 2 : plan->connections(),
                      error)) {
            complain("warm-up failed: " + error);
            return 1;
        }
        std::cerr << "e2e_bench: " << opt.workload << " warm-up "
                  << secondsSince(t0) << " s\n";
    }

    const auto workerStats = [&](std::vector<std::map<std::string, double>>
                                     &out) {
        out.clear();
        for (std::size_t w = 0; w < Stack::kWorkers; ++w) {
            std::string doc;
            std::string error;
            if (!stack->workerStats(w, doc, error))
                complain("worker " + std::to_string(w) + " STATS: " + error);
            out.push_back(statsOf(doc));
        }
    };
    std::vector<std::map<std::string, double>> before;
    workerStats(before);
    const ProcSample procBefore = stack->sample();

    // ---- Timed phase ----
    const DriveResult timed =
        drive(*plan, stack->gatewayPort(), seconds, labels,
              [&] { return stack->sample().cpuSeconds; }, kWindows);

    const ProcSample procAfter = stack->sample();
    std::vector<std::map<std::string, double>> after;
    workerStats(after);
    std::map<std::string, double> gatewayStats;
    {
        HttpConnection http(stack->gatewayPort());
        const HttpReply reply = http.request("GET", "/v1/stats");
        if (reply.ok && reply.status == 200)
            gatewayStats = statsOf(reply.body);
        else
            complain("gateway /v1/stats failed: " + reply.error);
    }
    {
        std::string error;
        if (!stack->stop(error))
            problem("the deployment did not drain with exit 0: " + error);
        stack.reset();
    }

    // ---- Correctness ----
    std::size_t completedRuns = 0;
    double simMinutes = 0.0;
    std::size_t sloMisses = 0;
    std::size_t misplaced = 0;
    std::vector<double> latencies;
    std::vector<double> lags;
    for (const CallRecord &rec : timed.calls) {
        attempted += rec.call.runs.size();
        lags.push_back(rec.lagMs);
        if (!rec.ok || rec.latencyMs > plan->limitMs())
            ++sloMisses;
        if (!rec.ok) {
            failed += rec.call.runs.size();
            continue;
        }
        latencies.push_back(rec.latencyMs);
        for (std::size_t i = 0; i < rec.runs.size(); ++i) {
            ++completedRuns;
            simMinutes +=
                static_cast<double>(rec.call.runs[i].horizonMinutes);
            misplaced += rec.runs[i].misplaced ? 1 : 0;
        }
    }
    for (const std::string &e : timed.errors)
        problem("request failed: " + e);
    if (attempted == 0)
        problem("no request was sent");
    if (timed.inconsistent > 0) {
        failed += timed.inconsistent;
        problem(std::to_string(timed.inconsistent) +
                " answers differ from an earlier answer for the same run");
    }
    if (misplaced > 0)
        std::cerr << "e2e_bench: " << misplaced
                  << " runs answered by another worker than the "
                     "rendezvous owner\n";

    // Seeded sample of answered runs, rendered in-process.
    {
        std::vector<RunSpec> specs;
        std::vector<std::string> live;
        const std::vector<RunSpec> all = plan->specs();
        std::vector<std::size_t> ids;
        for (const auto &[id, bytes] : timed.reports)
            ids.push_back(id);
        seededShuffle(ids, opt.seed);
        const std::size_t sample = smoke ? 4 : 16;
        ids.resize(std::min(sample, ids.size()));
        for (std::size_t id : ids) {
            specs.push_back(all[id]);
            live.push_back(timed.reports.at(id));
        }
        for (const std::string &report : probeReports) {
            specs.push_back(probe);
            live.push_back(report);
        }
        std::vector<std::string> errors;
        const Clock::time_point t0 = Clock::now();
        const std::size_t bad = checkAgainstOracle(specs, live, 4, errors);
        std::cerr << "e2e_bench: oracle checked " << specs.size()
                  << " runs in " << secondsSince(t0) << " s\n";
        if (bad > 0) {
            failed += bad;
            for (const std::string &e : errors)
                problem("oracle mismatch: " + e);
        }
    }

    // ---- End-to-end metrics ----
    const double wall = std::max(timed.wallSeconds, 1e-9);
    const double lagP99 = percentile(lags, 0.99);
    const bool valid = !plan->openLoop() || lagP99 <= kMaxLagP99Ms;
    if (!valid)
        problem("invalid run: generator lag p99 " + std::to_string(lagP99) +
                " ms exceeds " + std::to_string(kMaxLagP99Ms) + " ms");
    double requestsPerSec = static_cast<double>(completedRuns) / wall;
    double minutesPerSec = simMinutes / wall;
    double cpuMsPerRequest =
        completedRuns > 0 ? (procAfter.cpuSeconds - procBefore.cpuSeconds) *
                                1e3 / static_cast<double>(completedRuns)
                          : 0.0;
    std::vector<double> rates, minutes, cpu;
    if (timed.windows.size() >= 3) {
        for (std::size_t k = 0; k + 1 < timed.windows.size(); ++k) {
            const CpuSample &a = timed.windows[k];
            const CpuSample &b = timed.windows[k + 1];
            double runs = 0.0;
            double mins = 0.0;
            for (const CallRecord &rec : timed.calls) {
                if (!rec.ok || rec.done <= a.at || rec.done > b.at)
                    continue;
                runs += static_cast<double>(rec.runs.size());
                for (const RunSpec &s : rec.call.runs)
                    mins += static_cast<double>(s.horizonMinutes);
            }
            if (runs == 0.0 || b.at <= a.at)
                continue;
            rates.push_back(runs / (b.at - a.at));
            minutes.push_back(mins / (b.at - a.at));
            cpu.push_back((b.cpuSeconds - a.cpuSeconds) * 1e3 / runs);
        }
        if (!rates.empty()) {
            requestsPerSec = percentile(rates, 0.5);
            minutesPerSec = percentile(minutes, 0.5);
            cpuMsPerRequest = percentile(cpu, 0.5);
        }
    }
    std::vector<std::pair<std::string, double>> e2e = {
        {"setup_s", percentile(setupTimes, 0.5)},
        {"requests_per_sec", requestsPerSec},
        {"sim_minutes_per_sec", minutesPerSec},
        {"latency_p50_ms", percentile(latencies, 0.5)},
        {"latency_p90_ms", percentile(latencies, 0.9)},
        {"cpu_ms_per_request", cpuMsPerRequest},
        {"peak_rss_mb", procAfter.peakRssMb},
    };

    // ---- Per-layer metrics ----
    const auto delta = [&](const std::string &name) {
        return acrossWorkers(after, name) - acrossWorkers(before, name);
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const std::string lane =
        opt.workload == "sweep_batched" ? "batch" : "interactive";
    double forward[3] = {0.0, 0.0, 0.0};
    for (std::size_t w = 0; w < Stack::kWorkers; ++w) {
        const std::string p = "gateway.worker." + std::to_string(w) + ".";
        forward[0] += gatewayStats[p + "retry_later"];
        forward[1] += gatewayStats[p + "failovers_from"];
        forward[2] += gatewayStats[p + "transport_errors"];
    }
    const double hits = delta("serve.cache.hits");
    const double setupHits = delta("serve.setup_cache.hits");
    std::map<std::string, double> layer = {
        {"serve.batch.occupancy_mean",
         acrossWorkers(after, "serve.batch.occupancy.mean",
                       "serve.batch.occupancy.count")},
        {"gateway.route_runs_p50_us",
         gatewayStats["gateway.latency.runs.p50_us"]},
        {"serve.scheduler.queue_wait_mean_ms",
         acrossWorkers(after, "serve.latency." + lane + ".queue_wait.mean_us",
                       "serve.latency." + lane + ".queue_wait.count") /
             1e3},
        {"serve.result_cache.hit_ratio",
         ratio(hits, hits + delta("serve.cache.misses"))},
        {"core.setup_cache.hit_ratio",
         ratio(setupHits, setupHits + delta("serve.setup_cache.misses"))},
        {"gateway.forward.retry_later", forward[0]},
        {"gateway.forward.failovers", forward[1]},
        {"gateway.forward.transport_errors", forward[2]},
        {"loadgen.lag_p99_ms", lagP99},
        {"loadgen.latency_p99_ms", percentile(latencies, 0.99)},
        {"loadgen.failed_frac",
         ratio(static_cast<double>(failed), static_cast<double>(attempted))},
        {"loadgen.slo_miss_frac",
         ratio(static_cast<double>(sloMisses),
               static_cast<double>(timed.calls.size()))},
    };
    const double windowDelayUs =
        acrossWorkers(after, "serve.batch.window_delay.mean_us",
                      "serve.batch.window_delay.count");

    std::string budget;
    if (opt.trace) {
        const std::size_t lanes = static_cast<std::size_t>(
            std::lround(std::max(1.0, layer["serve.batch.occupancy_mean"])));
        Replay replay(*plan, placement, labels, lanes, runDir);
        std::size_t samples = opt.workload == "warm_hits"     ? 48
                              : opt.workload == "sweep_batched" ? 2
                                                               : 6;
        if (smoke)
            samples = std::min<std::size_t>(samples, 2);
        std::string error;
        const Clock::time_point t0 = Clock::now();
        if (!replay.run(timed, samples, opt.seed, error))
            problem("replay failed: " + error);
        std::cerr << "e2e_bench: replay took " << secondsSince(t0) << " s\n";
        for (const std::string &m : replay.mismatches()) {
            ++failed;
            problem("replay mismatch: " + m);
        }
        for (const auto &[name, values] : replay.costs())
            layer[name] = percentile(values, 0.5);
        if (const Budget *p50 = replay.medianBudget())
            layer["budget.unattributed_frac"] =
                p50->unattributedMs / p50->latencyMs;
        budget = replay.budgetTable(timed);
        std::ofstream(runDir + "/budget.txt") << budget;
        if (!replay.writeTrace(runDir + "/trace.json", timed))
            complain("cannot write " + runDir + "/trace.json");
    }

    // ---- Report ----
    std::map<std::string, std::string> units;
    for (const MetricDef &m : kEndToEnd)
        units[m.name] = m.unit;
    for (const MetricDef &m : kPerLayer)
        units[m.name] = m.unit;
    std::vector<std::pair<std::string, double>> perLayer;
    for (const MetricDef &m : kPerLayer)
        perLayer.emplace_back(m.name, layer[m.name]);
    const auto &shown = opt.trace ? perLayer : e2e;

    std::ostringstream file;
    file << "{\"workload\":" << jsonString(opt.workload)
         << ",\"seed\":" << opt.seed << ",\"seconds\":" << jsonDouble(seconds)
         << ",\"trace\":" << (opt.trace ? 1 : 0)
         << ",\"correct\":" << (correct ? "true" : "false")
         << ",\"valid\":" << (valid ? "true" : "false")
         << ",\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"metrics\":" << metricsJson(e2e, units);
    if (opt.trace)
        file << ",\"per_layer\":" << metricsJson(perLayer, units);
    file << ",\"extra\":{\"calls\":" << timed.calls.size()
         << ",\"wall_s\":" << jsonDouble(wall)
         << ",\"setup_starts_s\":[";
    for (std::size_t i = 0; i < setupTimes.size(); ++i)
        file << (i ? "," : "") << jsonDouble(setupTimes[i]);
    file << "],\"window_rates\":[";
    for (std::size_t i = 0; i < rates.size(); ++i)
        file << (i ? "," : "") << jsonDouble(rates[i]);
    file << "],\"window_delay_mean_us\":" << jsonDouble(windowDelayUs)
         << ",\"misplaced_runs\":" << misplaced << ",\"problems\":[";
    for (std::size_t i = 0; i < problems.size(); ++i)
        file << (i ? "," : "") << jsonString(problems[i]);
    file << "]}}\n";
    const std::string resultPath = runDir + ".json";
    std::ofstream(resultPath) << file.str();

    if (!budget.empty())
        std::cout << budget;
    for (const auto &[name, value] : shown)
        std::cout << opt.workload << " " << name << " " << jsonDouble(value)
                  << " " << units[name] << "\n";
    std::cout << "run file: " << resultPath << "\n";
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":" << metricsJson(shown, units) << "}"
              << std::endl;
    return correct ? 0 : 1;
}
