/**
 * @file
 * Serving-stack throughput benchmarks: wire-protocol codec rates, cache
 * fingerprint/lookup rates, raw scheduler dispatch, and end-to-end
 * request latency over loopback for both the cold (simulate) and warm
 * (cache hit) paths.
 *
 * Like bench_perf_kernels, the binary always writes a *stable*-schema
 * summary -- independent of google-benchmark's own JSON -- to
 * BENCH_serve.json (or $EDGETHERM_BENCH_SERVE_JSON when set) so CI can
 * archive serving-throughput trajectories across commits.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "gateway/gateway.hh"
#include "gateway/http.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "telemetry/events.hh" // jsonEscape
#include "telemetry/latency.hh"
#include "util/keyvalue.hh"
#include "util/logging.hh"

namespace {

using namespace ecolo;
using namespace ecolo::serve;

SubmitPayload
sampleSubmit()
{
    SubmitPayload p;
    p.priority = Priority::Interactive;
    p.clientId = "bench-client";
    p.policy = "myopic";
    p.param = 7.4;
    p.paramSet = true;
    p.horizonMinutes = 1440;
    p.scenarioText = "seed = 42\nbattery.capacityKwh = 0.4\n";
    return p;
}

KeyValueConfig
sampleScenario()
{
    std::istringstream is("seed = 42\nbattery.capacityKwh = 0.4\n");
    return KeyValueConfig::tryParse(is, "<bench>").take();
}

// ---- Wire protocol: frame encode + decode round trip. ----

void
BM_ProtocolSubmitRoundTrip(benchmark::State &state)
{
    const SubmitPayload payload = sampleSubmit();
    for (auto _ : state) {
        const std::string frame =
            encodeFrame(MessageType::Submit, 1, encodeSubmit(payload));
        auto decoded = decodeSubmit(
            frame.substr(kHeaderBytes));
        benchmark::DoNotOptimize(decoded.ok());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolSubmitRoundTrip);

void
BM_ProtocolResultEncode(benchmark::State &state)
{
    const std::string report(static_cast<std::size_t>(state.range(0)),
                             'r');
    for (auto _ : state) {
        const std::string frame =
            encodeFrame(MessageType::ResultReport, 1,
                        encodeResult({report}));
        benchmark::DoNotOptimize(frame.data());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProtocolResultEncode)->Arg(1 << 10)->Arg(64 << 10);

// ---- Result cache: fingerprint derivation and hit lookup. ----

void
BM_CacheKeyFingerprint(benchmark::State &state)
{
    const KeyValueConfig scenario = sampleScenario();
    for (auto _ : state) {
        const CacheKey key = makeCacheKey(scenario, "myopic", 7.4, 1440,
                                          thermal::KernelMode::Auto);
        benchmark::DoNotOptimize(key.hash);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheKeyFingerprint);

void
BM_CacheHitLookup(benchmark::State &state)
{
    ResultCache cache(32u << 20, 1024);
    const std::string report(16 << 10, 'r');
    const CacheKey key{0x1234};
    cache.insert(key, report);
    for (auto _ : state) {
        auto hit = cache.lookup(key);
        benchmark::DoNotOptimize(hit.has_value());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLookup);

// ---- Scheduler: no-op job dispatch rate through the full
// admission -> lane queue -> worker -> completion path. ----

void
BM_SchedulerDispatch(benchmark::State &state)
{
    const auto jobs_per_batch =
        static_cast<std::uint64_t>(state.range(0));
    std::uint64_t next_id = 1;
    for (auto _ : state) {
        Scheduler::Options options;
        options.numWorkers = 2;
        options.maxQueued = jobs_per_batch;
        std::atomic<std::uint64_t> done{0};
        Scheduler scheduler(options, [&done](Scheduler::Item &) {
            done.fetch_add(1);
        });
        std::thread runner([&] { scheduler.run(); });
        for (std::uint64_t j = 0; j < jobs_per_batch; ++j) {
            scheduler.submit(next_id, j % 4 == 0 ? Lane::Batch
                                                 : Lane::Interactive,
                             "client-" + std::to_string(j % 8), nullptr);
            ++next_id;
        }
        scheduler.drain(false);
        runner.join();
        benchmark::DoNotOptimize(done.load());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(jobs_per_batch));
}
BENCHMARK(BM_SchedulerDispatch)->Arg(256)->Unit(benchmark::kMillisecond);

// ---- End to end over loopback: cold simulate vs. warm cache hit. ----

RequestSpec
benchRequest(double days)
{
    RequestSpec spec;
    spec.clientId = "bench";
    spec.policy = "myopic";
    spec.horizonMinutes = static_cast<std::int64_t>(days * 24 * 60);
    spec.scenarioText = "seed = 42\n";
    return spec;
}

void
BM_EndToEndColdRequest(benchmark::State &state)
{
    ServerOptions options;
    options.numWorkers = 2;
    Server server(std::move(options));
    if (!server.start().ok()) {
        state.SkipWithError("server failed to start");
        return;
    }
    ServeClient client(server.port());
    // A distinct seed per iteration defeats the cache: every request
    // pays connection + parse + simulate (0.05 days) + render.
    std::uint64_t seed = 1;
    for (auto _ : state) {
        RequestSpec spec = benchRequest(0.05);
        spec.scenarioText = "seed = " + std::to_string(seed++) + "\n";
        const auto outcome = client.submit(spec);
        if (!outcome.ok() ||
            outcome.value().status != OutcomeStatus::Completed) {
            state.SkipWithError("cold request failed");
            break;
        }
        benchmark::DoNotOptimize(outcome.value().report.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndColdRequest)->Unit(benchmark::kMillisecond);

void
BM_EndToEndWarmCacheHit(benchmark::State &state)
{
    ServerOptions options;
    options.numWorkers = 2;
    Server server(std::move(options));
    if (!server.start().ok()) {
        state.SkipWithError("server failed to start");
        return;
    }
    ServeClient client(server.port());
    const RequestSpec spec = benchRequest(0.05);
    {
        const auto warm = client.submit(spec); // fill the cache
        if (!warm.ok() ||
            warm.value().status != OutcomeStatus::Completed) {
            state.SkipWithError("warm-up request failed");
            return;
        }
    }
    for (auto _ : state) {
        const auto outcome = client.submit(spec);
        if (!outcome.ok() || !outcome.value().cacheHit) {
            state.SkipWithError("expected a cache hit");
            break;
        }
        benchmark::DoNotOptimize(outcome.value().report.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndWarmCacheHit)->Unit(benchmark::kMillisecond);

// ---- Gateway leg: the same warm cache hit, but through the full
// HTTP/JSON front end (parse -> shard -> forward -> render JSON) on a
// single keep-alive connection. The gateway_requests_per_sec counter
// lands in BENCH_serve.json so CI can track front-end overhead against
// the raw wire-protocol numbers above. ----

/** Read one HTTP response off a blocking loopback connection. */
bool
readHttpResponse(util::TcpConnection &conn, std::string &buffer,
                 gateway::HttpResponse &out)
{
    gateway::HttpResponseParser parser;
    for (;;) {
        if (!buffer.empty()) {
            const std::size_t used =
                parser.feed(buffer.data(), buffer.size());
            buffer.erase(0, used);
        }
        if (parser.failed())
            return false;
        if (parser.complete()) {
            out = parser.response();
            return true;
        }
        char buf[4096];
        auto chunk = conn.tryRead(buf, sizeof buf);
        if (!chunk.ok() || chunk.value().eof)
            return false;
        buffer.append(buf, chunk.value().bytes);
    }
}

void
BM_GatewayWarmRequest(benchmark::State &state)
{
    ServerOptions serverOptions;
    serverOptions.numWorkers = 2;
    Server server(std::move(serverOptions));
    if (!server.start().ok()) {
        state.SkipWithError("worker failed to start");
        return;
    }
    gateway::GatewayOptions gwOptions;
    gwOptions.workers = {{"127.0.0.1", server.port()}};
    gwOptions.pool.probeIntervalMs = 0;
    gateway::Gateway gw(std::move(gwOptions));
    if (!gw.start().ok()) {
        state.SkipWithError("gateway failed to start");
        return;
    }

    const std::string body =
        "{\"policy\":\"myopic\",\"horizon_minutes\":72,"
        "\"scenario\":\"seed = 42\\n\",\"client_id\":\"bench\"}";
    const std::string wire =
        "POST /v1/runs HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;

    auto connected = util::connectLoopback(gw.port());
    if (!connected.ok()) {
        state.SkipWithError("gateway connect failed");
        return;
    }
    util::TcpConnection conn = connected.take();
    std::string buffer;
    gateway::HttpResponse response;
    // First request fills the worker cache; iterations measure the
    // keep-alive warm path.
    if (!conn.writeAll(wire.data(), wire.size()).ok() ||
        !readHttpResponse(conn, buffer, response) ||
        response.status != 200) {
        state.SkipWithError("gateway warm-up request failed");
        return;
    }
    for (auto _ : state) {
        if (!conn.writeAll(wire.data(), wire.size()).ok() ||
            !readHttpResponse(conn, buffer, response) ||
            response.status != 200) {
            state.SkipWithError("gateway request failed");
            break;
        }
        benchmark::DoNotOptimize(response.body.size());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["gateway_requests_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GatewayWarmRequest)->Unit(benchmark::kMillisecond);

// ---- The 64-request homogeneous campaign. Same seed (equal workload
// fingerprints: shared benign traces and a shared setup cache), swept
// policy parameter (64 distinct cache keys: the result cache never
// short-circuits a member), 30-day members from 16 clients onto 2
// workers. ----

constexpr int kCampaignRequests = 64;
constexpr int kCampaignClients = 16;
constexpr MinuteIndex kCampaignHorizonMinutes = 30 * 1440;

RequestSpec
campaignSpec(const std::string &client_id, double param)
{
    RequestSpec spec;
    spec.clientId = client_id;
    spec.priority = Priority::Batch;
    spec.policy = "myopic";
    spec.param = param;
    spec.paramSet = true;
    spec.horizonMinutes = kCampaignHorizonMinutes;
    spec.scenarioText = "seed = 42\n";
    return spec;
}

void
BM_ServeCampaign64(benchmark::State &state)
{
    ServerOptions options;
    options.numWorkers = 2;
    options.maxQueued = 2 * kCampaignRequests;
    options.cacheMaxEntries = 4096;
    Server server(std::move(options));
    if (!server.start().ok()) {
        state.SkipWithError("server failed to start");
        return;
    }
    // Warm the setup cache outside the timed region, so the leg times
    // steady-state dispatch rather than the one cold setup.
    {
        ServeClient client(server.port());
        const auto warm = client.submitWithRetry(
            campaignSpec("bench-warm", 4.0), RetryPolicy{});
        if (!warm.ok() ||
            warm.value().status != OutcomeStatus::Completed) {
            state.SkipWithError("warm-up request failed");
            return;
        }
    }
    std::uint64_t campaign = 0;
    double wallSeconds = 0.0;
    for (auto _ : state) {
        const auto started = std::chrono::steady_clock::now();
        ++campaign; // fresh param range: no result-cache carryover
        std::atomic<int> failures{0};
        std::vector<std::thread> clients;
        clients.reserve(kCampaignClients);
        for (int c = 0; c < kCampaignClients; ++c) {
            clients.emplace_back([&, c, campaign] {
                ServeClient client(server.port());
                const int per_client =
                    kCampaignRequests / kCampaignClients;
                for (int r = 0; r < per_client; ++r) {
                    const int i = c * per_client + r;
                    const RequestSpec spec = campaignSpec(
                        "bench-" + std::to_string(c),
                        5.0 + 0.01 * static_cast<double>(
                                         campaign * kCampaignRequests +
                                         i));
                    const auto outcome =
                        client.submitWithRetry(spec, RetryPolicy{});
                    if (!outcome.ok() ||
                        outcome.value().status !=
                            OutcomeStatus::Completed)
                        failures.fetch_add(1);
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        wallSeconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count();
        if (failures.load() != 0) {
            state.SkipWithError("campaign request failed");
            break;
        }
    }
    // Rate over *wall* time: the requests run on server threads, so the
    // benchmark thread's CPU clock (kIsRate's denominator) is ~zero.
    if (wallSeconds > 0.0)
        state.counters["campaign_requests_per_sec"] =
            static_cast<double>(state.iterations()) * kCampaignRequests /
            wallSeconds;
}
BENCHMARK(BM_ServeCampaign64)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

// ---- Open-loop Poisson arrivals (first step toward the ROADMAP's
// edgetherm_loadgen): requests fire on a seeded exponential arrival
// clock regardless of completions -- queueing shows up in the measured
// tail instead of throttling the offered load, unlike the closed-loop
// legs above. Mixed lanes: every 4th arrival is interactive. ----

void
BM_ServeOpenLoopPoisson(benchmark::State &state)
{
    constexpr int kArrivals = 96;
    constexpr double kMeanInterArrivalMs = 20.0;
    ServerOptions options;
    options.numWorkers = 2;
    options.maxQueued = 2 * kArrivals;
    options.cacheMaxEntries = 4096;
    Server server(std::move(options));
    if (!server.start().ok()) {
        state.SkipWithError("server failed to start");
        return;
    }

    telemetry::TailLatency all;
    telemetry::TailLatency interactive;
    telemetry::TailLatency batchLane;
    std::atomic<int> failures{0};
    double wallSeconds = 0.0;
    for (auto _ : state) {
        // Deterministic arrival schedule: same offered load each run.
        std::mt19937_64 rng(4242);
        std::exponential_distribution<double> gap(
            1.0 / kMeanInterArrivalMs);
        std::vector<double> arrivalMs(kArrivals);
        double t = 0.0;
        for (int i = 0; i < kArrivals; ++i) {
            t += gap(rng);
            arrivalMs[i] = t;
        }
        std::vector<std::thread> inflight;
        inflight.reserve(kArrivals);
        const auto epoch = std::chrono::steady_clock::now();
        for (int i = 0; i < kArrivals; ++i) {
            std::this_thread::sleep_until(
                epoch + std::chrono::duration<double, std::milli>(
                            arrivalMs[i]));
            inflight.emplace_back([&, i] {
                const bool isInteractive = i % 4 == 0;
                RequestSpec spec;
                spec.clientId = "load-" + std::to_string(i % 6);
                spec.priority = isInteractive ? Priority::Interactive
                                              : Priority::Batch;
                spec.policy = "myopic";
                // 12 distinct keys: cold constructions early, result
                // cache hits on repeats -- a mixed realistic blend.
                spec.param = 5.0 + 0.1 * static_cast<double>(i % 12);
                spec.paramSet = true;
                spec.horizonMinutes = 720;
                spec.scenarioText = "seed = 42\n";
                const auto sent = std::chrono::steady_clock::now();
                ServeClient client(server.port());
                const auto outcome =
                    client.submitWithRetry(spec, RetryPolicy{});
                const double us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - sent)
                        .count();
                if (!outcome.ok() ||
                    outcome.value().status !=
                        OutcomeStatus::Completed) {
                    failures.fetch_add(1);
                    return;
                }
                all.record(us);
                (isInteractive ? interactive : batchLane).record(us);
            });
        }
        for (std::thread &t2 : inflight)
            t2.join();
        wallSeconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - epoch)
                           .count();
        if (failures.load() != 0) {
            state.SkipWithError("open-loop request failed");
            break;
        }
    }
    const auto overall = all.snapshot();
    const auto inter = interactive.snapshot();
    const auto batchSnap = batchLane.snapshot();
    if (wallSeconds > 0.0)
        state.counters["openloop_requests_per_sec"] =
            static_cast<double>(overall.count) / wallSeconds;
    state.counters["openloop_p99_ms"] = overall.p99 / 1000.0;
    state.counters["openloop_interactive_p99_ms"] = inter.p99 / 1000.0;
    state.counters["openloop_batch_p99_ms"] = batchSnap.p99 / 1000.0;
}
BENCHMARK(BM_ServeOpenLoopPoisson)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

/** Collects finished runs for the stable-schema JSON summary. */
class ServeJsonReporter : public benchmark::ConsoleReporter
{
  public:
    struct CollectedRun
    {
        std::string name;
        std::string label;
        std::int64_t iterations = 0;
        double realTimeNs = 0.0;
        double cpuTimeNs = 0.0;
        std::vector<std::pair<std::string, double>> counters;
    };

    void
    ReportRuns(const std::vector<Run> &report) override
    {
        benchmark::ConsoleReporter::ReportRuns(report);
        for (const Run &run : report) {
            if (run.error_occurred)
                continue;
            CollectedRun collected;
            collected.name = run.benchmark_name();
            collected.label = run.report_label;
            collected.iterations = run.iterations;
            const double iters =
                run.iterations > 0 ? static_cast<double>(run.iterations)
                                   : 1.0;
            collected.realTimeNs =
                run.real_accumulated_time * 1e9 / iters;
            collected.cpuTimeNs = run.cpu_accumulated_time * 1e9 / iters;
            for (const auto &[counter_name, counter] : run.counters) {
                collected.counters.emplace_back(
                    counter_name, static_cast<double>(counter));
            }
            runs_.push_back(std::move(collected));
        }
    }

    const std::vector<CollectedRun> &runs() const { return runs_; }

  private:
    std::vector<CollectedRun> runs_;
};

bool
writeServeJson(const std::string &path,
               const std::vector<ServeJsonReporter::CollectedRun> &runs)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    using ecolo::telemetry::jsonEscape;
    os << "{\"schema\":\"edgetherm-bench-serve-v1\",\"benchmarks\":[";
    os.precision(17);
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const auto &run = runs[k];
        if (k > 0)
            os << ",";
        os << "{\"name\":\"" << jsonEscape(run.name)
           << "\",\"iterations\":" << run.iterations
           << ",\"real_time_ns\":" << run.realTimeNs
           << ",\"cpu_time_ns\":" << run.cpuTimeNs << ",\"label\":\""
           << jsonEscape(run.label) << "\",\"counters\":{";
        for (std::size_t c = 0; c < run.counters.size(); ++c) {
            if (c > 0)
                os << ",";
            os << "\"" << jsonEscape(run.counters[c].first)
               << "\":" << run.counters[c].second;
        }
        os << "}}";
    }
    os << "]}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    ServeJsonReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const char *env_path = std::getenv("EDGETHERM_BENCH_SERVE_JSON");
    const std::string path = (env_path != nullptr && env_path[0] != '\0')
                                 ? env_path
                                 : "BENCH_serve.json";
    if (!writeServeJson(path, reporter.runs())) {
        ecolo::warn("could not write serve summary: ", path);
        return 1;
    }
    ecolo::inform("wrote serve summary: ", path, " (",
                  reporter.runs().size(), " benchmarks)");
    return 0;
}
