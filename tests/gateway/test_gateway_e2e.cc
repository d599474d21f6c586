/**
 * @file
 * In-process end-to-end tests for the HTTP/JSON gateway: two real
 * serve::Servers on ephemeral loopback ports behind a real Gateway,
 * driven over raw sockets with the client-side response parser. Covers
 * the PR's acceptance criteria: a gateway run's report matches a direct
 * engine render byte for byte, a warm re-submit is a byte-identical
 * cache hit, failover from a dead worker address completes with a typed
 * outcome, chunked streaming, keep-alive pipelining, cancellation, the
 * 4xx mappings, the stats document, and a seeded chaos run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "faults/chaos.hh"
#include "gateway/gateway.hh"
#include "gateway/http.hh"
#include "gateway/json.hh"
#include "serve/server.hh"
#include "stat_reader.hh"
#include "util/keyvalue.hh"
#include "util/sim_time.hh"
#include "util/socket.hh"

namespace ecolo::gateway {
namespace {

using namespace std::chrono_literals;
using test::readStat;

/** One worker server on an ephemeral port; drained at scope exit. */
class WorkerHarness
{
  public:
    explicit WorkerHarness(serve::ServerOptions options = {})
        : server_(std::move(options))
    {
        const auto started = server_.start();
        EXPECT_TRUE(started.ok()) << started.error().describe();
    }

    ~WorkerHarness()
    {
        server_.requestDrain();
        server_.waitUntilStopped();
    }

    std::uint16_t port() const { return server_.port(); }
    const serve::Server &server() const { return server_; }

  private:
    serve::Server server_;
};

/** A gateway over explicit worker addresses; drained at scope exit. */
class GatewayHarness
{
  public:
    explicit GatewayHarness(std::vector<WorkerAddress> workers,
                            GatewayOptions options = {})
        : gateway_((options.workers = std::move(workers),
                    std::move(options)))
    {
        const auto started = gateway_.start();
        EXPECT_TRUE(started.ok()) << started.error().describe();
    }

    ~GatewayHarness()
    {
        gateway_.requestDrain();
        gateway_.waitUntilStopped();
    }

    Gateway &operator*() { return gateway_; }
    Gateway *operator->() { return &gateway_; }
    std::uint16_t port() const { return gateway_.port(); }

  private:
    Gateway gateway_;
};

/** Fast retries so dead-worker failover doesn't slow the suite. */
GatewayOptions
fastOptions()
{
    GatewayOptions options;
    options.pool.retry.maxAttempts = 2;
    options.pool.retry.baseBackoffMs = 2;
    options.pool.retry.maxBackoffMs = 10;
    options.pool.probeIntervalMs = 0; // health probes off in tests
    options.numForwarders = 3;
    return options;
}

std::string
httpGet(const std::string &path)
{
    return "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

std::string
httpDelete(const std::string &path)
{
    return "DELETE " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

std::string
httpPost(const std::string &path, const std::string &body)
{
    return "POST " + path + " HTTP/1.1\r\nHost: t\r\n"
           "Content-Type: application/json\r\n"
           "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

/** One keep-alive connection; supports pipelined round trips. */
class HttpSession
{
  public:
    explicit HttpSession(std::uint16_t port)
    {
        auto conn = util::connectLoopback(port);
        EXPECT_TRUE(conn.ok()) << conn.error().describe();
        if (conn.ok())
            conn_ = conn.take();
    }

    util::Result<void> send(const std::string &wire)
    { return conn_.writeAll(wire.data(), wire.size()); }

    /** Read exactly one response off the stream. */
    util::Result<HttpResponse> readResponse()
    {
        HttpResponseParser parser;
        for (;;) {
            if (!buffer_.empty()) {
                const std::size_t used =
                    parser.feed(buffer_.data(), buffer_.size());
                buffer_.erase(0, used);
            }
            if (parser.failed())
                return ECOLO_ERROR(util::ErrorCode::ParseError,
                                   "http response: ",
                                   parser.errorReason());
            if (parser.complete())
                return parser.response();
            char buf[4096];
            auto chunk = conn_.tryRead(buf, sizeof buf);
            if (!chunk)
                return chunk.error();
            if (chunk.value().eof)
                return ECOLO_ERROR(util::ErrorCode::IoError,
                                   "eof before response completed");
            buffer_.append(buf, chunk.value().bytes);
        }
    }

    util::Result<HttpResponse> roundTrip(const std::string &wire)
    {
        if (auto sent = send(wire); !sent.ok())
            return sent.error();
        return readResponse();
    }

  private:
    util::TcpConnection conn_;
    std::string buffer_;
};

/** One-shot request on a fresh connection. */
util::Result<HttpResponse>
request(std::uint16_t port, const std::string &wire)
{
    HttpSession session(port);
    return session.roundTrip(wire);
}

/** Parse a response body that must be a JSON object. */
JsonValue
jsonBody(const HttpResponse &resp)
{
    auto doc = JsonValue::parse(resp.body);
    EXPECT_TRUE(doc.ok())
        << doc.error().describe() << "\nbody: " << resp.body;
    return doc.ok() ? doc.take() : JsonValue();
}

std::string
runBody(std::uint64_t seed, const std::string &extra = "")
{
    return "{\"policy\":\"myopic\",\"days\":1,"
           "\"scenario\":\"seed = " + std::to_string(seed) + "\\n\","
           "\"client_id\":\"t\"" + extra + "}";
}

/** What the engine renders for this request, bypassing the cluster. */
std::string
directReport(std::uint64_t seed, double days = 1.0)
{
    core::SimulationConfig config =
        core::SimulationConfig::paperDefault();
    std::istringstream is("seed = " + std::to_string(seed) + "\n");
    auto kv = KeyValueConfig::tryParse(is, "<test>");
    EXPECT_TRUE(kv.ok());
    EXPECT_TRUE(core::tryApplyScenario(kv.value(), config).ok());
    const double param = core::defaultPolicyParam("myopic");
    auto policy = core::tryMakePolicyByName(config, "myopic", param);
    EXPECT_TRUE(policy.ok());
    const auto horizon = static_cast<std::int64_t>(
        days * static_cast<double>(kMinutesPerDay));
    core::Simulation sim(config, policy.take());
    sim.run(horizon);
    core::ReportInputs inputs;
    inputs.policyName = "myopic";
    inputs.policyParameter = param;
    inputs.simulatedDays =
        static_cast<double>(horizon) /
        static_cast<double>(kMinutesPerDay);
    std::ostringstream os;
    core::writeMarkdownReport(os, config, sim.metrics(), inputs);
    return os.str();
}

/** The cache-key hash the gateway shards `seed`'s request on. */
std::uint64_t
keyHashFor(std::uint64_t seed)
{
    serve::SubmitPayload payload;
    payload.clientId = "t";
    payload.policy = "myopic";
    payload.horizonMinutes = kMinutesPerDay;
    payload.scenarioText = "seed = " + std::to_string(seed) + "\n";
    auto prepared =
        serve::prepareSubmitPayload(payload, 366L * 24 * 60 * 100);
    EXPECT_TRUE(prepared.ok()) << prepared.error().describe();
    return prepared.ok() ? prepared.value().key.hash : 0;
}

TEST(GatewayE2E, SyncRunMatchesDirectEngineRender)
{
    WorkerHarness w1, w2;
    GatewayHarness gw({{"127.0.0.1", w1.port()},
                       {"127.0.0.1", w2.port()}},
                      fastOptions());

    auto resp = request(gw.port(), httpPost("/v1/runs", runBody(4242)));
    ASSERT_TRUE(resp.ok()) << resp.error().describe();
    EXPECT_EQ(resp.value().status, 200);
    const JsonValue doc = jsonBody(resp.value());
    ASSERT_NE(doc.member("status"), nullptr);
    EXPECT_EQ(doc.member("status")->asString(), "completed");
    ASSERT_NE(doc.member("report"), nullptr);
    EXPECT_EQ(doc.member("report")->asString(), directReport(4242));
    ASSERT_NE(doc.member("cache_hit"), nullptr);
    EXPECT_FALSE(doc.member("cache_hit")->asBool());
    ASSERT_NE(doc.member("failovers"), nullptr);
    EXPECT_DOUBLE_EQ(doc.member("failovers")->asNumber(), 0.0);
}

TEST(GatewayE2E, WarmResubmitIsAByteIdenticalCacheHit)
{
    WorkerHarness w1, w2;
    GatewayHarness gw({{"127.0.0.1", w1.port()},
                       {"127.0.0.1", w2.port()}},
                      fastOptions());

    auto cold = request(gw.port(), httpPost("/v1/runs", runBody(7)));
    ASSERT_TRUE(cold.ok()) << cold.error().describe();
    ASSERT_EQ(cold.value().status, 200);
    const JsonValue coldDoc = jsonBody(cold.value());
    EXPECT_FALSE(coldDoc.member("cache_hit")->asBool());

    // The same content-addressed request lands on the same worker and
    // hits its cache: byte-identical report, cache_hit true.
    auto warm = request(gw.port(), httpPost("/v1/runs", runBody(7)));
    ASSERT_TRUE(warm.ok()) << warm.error().describe();
    ASSERT_EQ(warm.value().status, 200);
    const JsonValue warmDoc = jsonBody(warm.value());
    EXPECT_TRUE(warmDoc.member("cache_hit")->asBool());
    EXPECT_EQ(warmDoc.member("report")->asString(),
              coldDoc.member("report")->asString());
    EXPECT_EQ(warmDoc.member("worker")->asString(),
              coldDoc.member("worker")->asString());
}

TEST(GatewayE2E, FailoverFromDeadWorkerCompletesTheRun)
{
    WorkerHarness live;
    const WorkerAddress dead{"127.0.0.1", 9}; // nothing listens here
    const WorkerAddress alive{"127.0.0.1", live.port()};
    GatewayHarness gw({dead, alive}, fastOptions());

    // Pick a seed whose rendezvous-preferred worker IS the dead one,
    // so the failover path runs deterministically.
    std::uint64_t seed = 0;
    for (std::uint64_t candidate = 1; candidate < 64; ++candidate) {
        const std::uint64_t hash = keyHashFor(candidate);
        if (WorkerPool::rendezvousScore(dead, hash) >
            WorkerPool::rendezvousScore(alive, hash)) {
            seed = candidate;
            break;
        }
    }
    ASSERT_NE(seed, 0u) << "no seed preferred the dead worker";

    auto resp = request(gw.port(),
                        httpPost("/v1/runs", runBody(seed)));
    ASSERT_TRUE(resp.ok()) << resp.error().describe();
    EXPECT_EQ(resp.value().status, 200);
    const JsonValue doc = jsonBody(resp.value());
    EXPECT_EQ(doc.member("status")->asString(), "completed");
    EXPECT_EQ(doc.member("report")->asString(), directReport(seed));
    EXPECT_DOUBLE_EQ(doc.member("failovers")->asNumber(), 1.0);
    EXPECT_EQ(doc.member("worker")->asString(), alive.label());

    // The walk marked the dead worker out and counted the failover.
    EXPECT_FALSE(gw->pool().healthy(0));
    EXPECT_GE(readStat(*gw, "gateway.worker.0.transport_errors"), 1.0);
    EXPECT_GE(readStat(*gw, "gateway.worker.0.failovers_from"), 1.0);
    EXPECT_GE(readStat(*gw, "gateway.worker.1.answered"), 1.0);
    EXPECT_EQ(readStat(*gw, "gateway.worker.0.healthy"), 0.0);
}

TEST(GatewayE2E, StreamingRunEmitsNdjsonEventsThenTheEnvelope)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());

    auto resp = request(
        gw.port(),
        httpPost("/v1/runs", runBody(21, ",\"stream\":true")));
    ASSERT_TRUE(resp.ok()) << resp.error().describe();
    EXPECT_EQ(resp.value().status, 200);
    EXPECT_TRUE(resp.value().chunked);
    ASSERT_NE(resp.value().header("content-type"), nullptr);
    EXPECT_EQ(*resp.value().header("content-type"),
              "application/x-ndjson");

    // The decoded stream is NDJSON: an accepted event first, then the
    // terminal envelope on the last line.
    std::vector<std::string> lines;
    std::istringstream is(resp.value().body);
    for (std::string line; std::getline(is, line);)
        if (!line.empty())
            lines.push_back(line);
    ASSERT_GE(lines.size(), 2u) << resp.value().body;

    auto first = JsonValue::parse(lines.front());
    ASSERT_TRUE(first.ok()) << lines.front();
    ASSERT_NE(first.value().member("event"), nullptr);
    EXPECT_EQ(first.value().member("event")->asString(), "accepted");

    auto last = JsonValue::parse(lines.back());
    ASSERT_TRUE(last.ok()) << lines.back();
    ASSERT_NE(last.value().member("status"), nullptr);
    EXPECT_EQ(last.value().member("status")->asString(), "completed");
    EXPECT_EQ(last.value().member("report")->asString(),
              directReport(21));
}

TEST(GatewayE2E, AsyncRunIsAcceptedThenPollable)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());

    auto accepted = request(
        gw.port(),
        httpPost("/v1/runs", runBody(33, ",\"async\":true")));
    ASSERT_TRUE(accepted.ok()) << accepted.error().describe();
    EXPECT_EQ(accepted.value().status, 202);
    const JsonValue doc = jsonBody(accepted.value());
    ASSERT_NE(doc.member("id"), nullptr);
    const auto id = static_cast<std::uint64_t>(
        doc.member("id")->asNumber());
    EXPECT_EQ(doc.member("status")->asString(), "queued");

    // Poll until the run reaches its terminal envelope.
    const std::string path = "/v1/runs/" + std::to_string(id);
    const auto deadline =
        std::chrono::steady_clock::now() + 30s;
    for (;;) {
        auto polled = request(gw.port(), httpGet(path));
        ASSERT_TRUE(polled.ok()) << polled.error().describe();
        ASSERT_EQ(polled.value().status, 200);
        const JsonValue state = jsonBody(polled.value());
        ASSERT_NE(state.member("status"), nullptr);
        const std::string &status = state.member("status")->asString();
        if (status == "completed") {
            EXPECT_EQ(state.member("report")->asString(),
                      directReport(33));
            break;
        }
        ASSERT_TRUE(status == "queued" || status == "running")
            << polled.value().body;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "async run never completed";
        std::this_thread::sleep_for(20ms);
    }

    // The registry lists it.
    auto list = request(gw.port(), httpGet("/v1/runs"));
    ASSERT_TRUE(list.ok());
    const JsonValue listDoc = jsonBody(list.value());
    ASSERT_NE(listDoc.member("runs"), nullptr);
    ASSERT_TRUE(listDoc.member("runs")->isArray());
    EXPECT_GE(listDoc.member("runs")->items().size(), 1u);
}

TEST(GatewayE2E, FleetScatterGathersEveryRun)
{
    WorkerHarness w1, w2;
    GatewayHarness gw({{"127.0.0.1", w1.port()},
                       {"127.0.0.1", w2.port()}},
                      fastOptions());

    const std::string body = "{\"runs\":[" + runBody(101) + "," +
                             runBody(102) + "," + runBody(103) + "]}";
    auto resp = request(gw.port(), httpPost("/v1/fleet", body));
    ASSERT_TRUE(resp.ok()) << resp.error().describe();
    EXPECT_EQ(resp.value().status, 200);
    const JsonValue doc = jsonBody(resp.value());
    ASSERT_NE(doc.member("count"), nullptr);
    EXPECT_DOUBLE_EQ(doc.member("count")->asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(doc.member("completed")->asNumber(), 3.0);
    ASSERT_TRUE(doc.member("runs")->isArray());
    ASSERT_EQ(doc.member("runs")->items().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        const JsonValue &entry = doc.member("runs")->items()[i];
        EXPECT_EQ(entry.member("status")->asString(), "completed");
        EXPECT_EQ(entry.member("report")->asString(),
                  directReport(101 + i));
    }
}

TEST(GatewayE2E, KeepAlivePipeliningAnswersInOrder)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());

    HttpSession session(gw.port());
    // Two requests written back to back on one connection; the second
    // is parked until the first (worker-bound) one resolves.
    ASSERT_TRUE(session
                    .send(httpPost("/v1/runs", runBody(55)) +
                          httpGet("/v1/healthz"))
                    .ok());
    auto first = session.readResponse();
    ASSERT_TRUE(first.ok()) << first.error().describe();
    EXPECT_EQ(first.value().status, 200);
    EXPECT_EQ(jsonBody(first.value()).member("status")->asString(),
              "completed");
    auto second = session.readResponse();
    ASSERT_TRUE(second.ok()) << second.error().describe();
    EXPECT_EQ(second.value().status, 200);
    EXPECT_EQ(jsonBody(second.value()).member("status")->asString(),
              "ok");

    // And the connection still serves a third round trip.
    auto third = session.roundTrip(httpGet("/v1/healthz"));
    ASSERT_TRUE(third.ok()) << third.error().describe();
    EXPECT_EQ(third.value().status, 200);
}

TEST(GatewayE2E, CancelPaths)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());

    // Cancelling a completed run is a no-op with cancelled:false.
    auto done = request(gw.port(), httpPost("/v1/runs", runBody(61)));
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().status, 200);
    const auto id = static_cast<std::uint64_t>(
        jsonBody(done.value()).member("id")->asNumber());
    auto cancel = request(
        gw.port(), httpDelete("/v1/runs/" + std::to_string(id)));
    ASSERT_TRUE(cancel.ok());
    EXPECT_EQ(cancel.value().status, 200);
    const JsonValue doc = jsonBody(cancel.value());
    EXPECT_EQ(doc.member("status")->asString(), "completed");
    EXPECT_FALSE(doc.member("cancelled")->asBool());

    // Cancelling an unknown id is a 404 with the typed code.
    auto missing = request(gw.port(), httpDelete("/v1/runs/999999"));
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value().status, 404);
    EXPECT_EQ(jsonBody(missing.value())
                  .member("error")->member("code")->asString(),
              "unknown_request");
}

TEST(GatewayE2E, ValidationAndRoutingErrorsMapToTypedBodies)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());

    struct Case
    {
        std::string wire;
        int status;
        std::string code;
    };
    const std::vector<Case> corpus = {
        {httpPost("/v1/runs", "{not json"), 400, "parse_error"},
        {httpPost("/v1/runs", "[1,2]"), 400, "validation_error"},
        {httpPost("/v1/runs", "{\"days\":1,\"bogus\":true}"), 400,
         "validation_error"},
        {httpPost("/v1/runs", "{\"policy\":\"myopic\"}"), 400,
         "validation_error"}, // no horizon
        {httpPost("/v1/runs",
                  "{\"days\":1,\"horizon_minutes\":60}"),
         400, "validation_error"}, // both
        {httpPost("/v1/runs",
                  "{\"days\":1,\"policy\":\"nonsense\"}"),
         400, "validation_error"},
        {httpPost("/v1/runs",
                  "{\"days\":1,\"stream\":true,\"async\":true}"),
         400, "validation_error"},
        {httpPost("/v1/fleet", "{\"runs\":[]}"), 400,
         "validation_error"},
        {httpGet("/v1/nope"), 404, "not_found"},
        {httpGet("/v1/runs/notanumber"), 404, "not_found"},
        {"PUT /v1/runs HTTP/1.1\r\nHost: t\r\n\r\n", 405,
         "method_not_allowed"},
        {"BROKEN\r\n\r\n", 400, "bad_request"},
    };
    for (const Case &c : corpus) {
        auto resp = request(gw.port(), c.wire);
        ASSERT_TRUE(resp.ok())
            << c.wire << "\n" << resp.error().describe();
        EXPECT_EQ(resp.value().status, c.status) << c.wire;
        const JsonValue doc = jsonBody(resp.value());
        ASSERT_NE(doc.member("error"), nullptr) << c.wire;
        EXPECT_EQ(doc.member("error")->member("code")->asString(),
                  c.code)
            << c.wire;
    }

    // A 405 names the allowed methods.
    auto put = request(gw.port(),
                       "PUT /v1/runs HTTP/1.1\r\nHost: t\r\n\r\n");
    ASSERT_TRUE(put.ok());
    ASSERT_NE(put.value().header("allow"), nullptr);
    EXPECT_EQ(*put.value().header("allow"), "GET, POST");
}

TEST(GatewayE2E, StatsDocumentCarriesGatewayMetrics)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());

    ASSERT_TRUE(request(gw.port(),
                        httpPost("/v1/runs", runBody(71))).ok());
    ASSERT_TRUE(request(gw.port(), httpGet("/v1/healthz")).ok());

    auto resp = request(gw.port(), httpGet("/v1/stats"));
    ASSERT_TRUE(resp.ok()) << resp.error().describe();
    ASSERT_EQ(resp.value().status, 200);
    const JsonValue doc = jsonBody(resp.value());
    ASSERT_NE(doc.member("schema"), nullptr);
    EXPECT_EQ(doc.member("schema")->asString(),
              "edgetherm-metrics-v1");
    const JsonValue *stats = doc.member("stats");
    ASSERT_NE(stats, nullptr);
    // Each registry stat serializes as {"kind":...,"value":N}.
    const auto metric = [stats](const std::string &name) -> double {
        const JsonValue *v = stats->member(name);
        EXPECT_NE(v, nullptr) << name;
        if (v == nullptr)
            return -1.0;
        const JsonValue *value = v->member("value");
        EXPECT_NE(value, nullptr) << name;
        return value != nullptr && value->isNumber()
                   ? value->asNumber()
                   : -1.0;
    };
    EXPECT_GE(metric("gateway.http.requests"), 2.0);
    EXPECT_GE(metric("gateway.http.responses_2xx"), 2.0);
    EXPECT_GE(metric("gateway.runs.submitted"), 1.0);
    EXPECT_GE(metric("gateway.runs.completed"), 1.0);
    EXPECT_GE(metric("gateway.worker.0.forwarded"), 1.0);
    EXPECT_GE(metric("gateway.worker.0.answered"), 1.0);
    EXPECT_EQ(metric("gateway.worker.0.healthy"), 1.0);
    EXPECT_GE(metric("gateway.latency.runs.count"), 1.0);
    EXPECT_GE(metric("gateway.latency.runs.p99_us"), 0.0);
    EXPECT_GE(metric("gateway.workers.healthy"), 1.0);

    // The stats route pulls each worker's setup-cache counters over a
    // STATS RPC and mirrors them in. One lone run shows up as a
    // setup-cache miss, per worker and cluster-wide.
    EXPECT_GE(metric("gateway.worker.0.serve.setup_cache.misses"), 1.0);
    EXPECT_GE(metric("gateway.cluster.setup_cache.misses"), 1.0);
    // Only mirrored: the in-process worker's own stats stay in the
    // worker's document.
    EXPECT_EQ(stats->member("serve.cache.hits"), nullptr);
    EXPECT_EQ(stats->member("serve.requests.completed"), nullptr);

    // healthz agrees.
    auto health = request(gw.port(), httpGet("/v1/healthz"));
    ASSERT_TRUE(health.ok());
    const JsonValue hd = jsonBody(health.value());
    EXPECT_EQ(hd.member("status")->asString(), "ok");
    EXPECT_DOUBLE_EQ(hd.member("workers")->asNumber(), 1.0);
}

/**
 * Every key of the worker and gateway metrics documents, which CI
 * (ci.yml), bench/e2e/main.cc and the serve tests read by name. Tail
 * stats may add entries; none of these may go missing or lose its
 * numeric "value".
 */
std::vector<std::string>
serveMetricKeys()
{
    std::vector<std::string> keys = {
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
        "serve.cache.insertions",
        "serve.cache.oversize_rejected",
        "serve.cache.entries",
        "serve.cache.bytes",
        "serve.requests.submitted",
        "serve.requests.admitted",
        "serve.requests.rejected_queue_full",
        "serve.requests.rejected_draining",
        "serve.requests.completed",
        "serve.requests.cancelled",
        "serve.requests.deadline_exceeded",
        "serve.requests.deadline_expired_queued",
        "serve.dispatch.interactive",
        "serve.dispatch.batch",
        "serve.setup_cache.hits",
        "serve.setup_cache.misses",
        "serve.setup_cache.trace_hits",
        "serve.setup_cache.factorization_hits",
        "serve.queue.depth",
        "serve.queue.running",
        "serve.connections.accepted",
        "serve.protocol.errors",
        "serve.journal.recovered",
        "serve.journal.replayed",
        "serve.journal.pending",
        "serve.journal.append_failures",
        "serve.journal.records",
        "serve.journal.syncs",
    };
    for (const char *lane : {"interactive", "batch", "interactive.queue_wait",
                             "batch.queue_wait"}) {
        for (const char *field : {"count", "mean_us", "jitter_us", "min_us",
                                  "max_us", "p50_us", "p95_us", "p99_us"})
            keys.push_back(std::string("serve.latency.") + lane + "." +
                           field);
    }
    return keys;
}

std::vector<std::string>
gatewayMetricKeys()
{
    std::vector<std::string> keys = {
        "gateway.connections.accepted",
        "gateway.connections.rejected",
        "gateway.connections.active",
        "gateway.connections.idle_closed",
        "gateway.http.requests",
        "gateway.http.responses_2xx",
        "gateway.http.responses_4xx",
        "gateway.http.responses_5xx",
        "gateway.http.parse_errors",
        "gateway.http.expect_continue",
        "gateway.http.bytes_in",
        "gateway.http.bytes_out",
        "gateway.runs.submitted",
        "gateway.runs.completed",
        "gateway.runs.failed",
        "gateway.runs.streaming",
        "gateway.runs.async",
        "gateway.workers.total",
        "gateway.workers.healthy",
        "gateway.cluster.setup_cache.hits",
        "gateway.cluster.setup_cache.misses",
    };
    for (const char *route : {"runs", "stats", "other"}) {
        for (const char *field :
             {"count", "mean_us", "jitter_us", "p50_us", "p95_us", "p99_us"})
            keys.push_back(std::string("gateway.latency.") + route + "." +
                           field);
    }
    for (const char *field :
         {"forwarded", "answered", "cache_hits", "retry_later",
          "transport_errors", "failovers_from", "probes", "probe_failures",
          "healthy", "serve.setup_cache.hits", "serve.setup_cache.misses"})
        keys.push_back(std::string("gateway.worker.0.") + field);
    return keys;
}

/** Each key is a member of the document's stats with a numeric value. */
void
expectNumericKeys(const std::string &document,
                  const std::vector<std::string> &keys)
{
    auto parsed = JsonValue::parse(document);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    ASSERT_NE(parsed.value().member("schema"), nullptr);
    EXPECT_EQ(parsed.value().member("schema")->asString(),
              "edgetherm-metrics-v1");
    const JsonValue *stats = parsed.value().member("stats");
    ASSERT_NE(stats, nullptr);
    for (const std::string &key : keys) {
        const JsonValue *stat = stats->member(key);
        const JsonValue *value =
            stat != nullptr ? stat->member("value") : nullptr;
        EXPECT_TRUE(value != nullptr && value->isNumber())
            << key << " missing or not numeric";
    }
}

TEST(GatewayE2E, MetricsDocumentsKeepEveryKey)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());
    ASSERT_TRUE(request(gw.port(),
                        httpPost("/v1/runs", runBody(73))).ok());

    auto resp = request(gw.port(), httpGet("/v1/stats"));
    ASSERT_TRUE(resp.ok()) << resp.error().describe();
    ASSERT_EQ(resp.value().status, 200);
    expectNumericKeys(resp.value().body, gatewayMetricKeys());
    expectNumericKeys(w1.server().metricsJson(), serveMetricKeys());
}

TEST(GatewayE2E, ChaosShortOpsAreInvisibleToTheByteStream)
{
    // Clamp every socket chunk (gateway client side AND worker side)
    // to 7 bytes: the partial-I/O retry loops must reassemble the
    // stream byte-identically end to end.
    faults::ChaosSchedule schedule;
    schedule.setSeed(99);
    faults::ChaosRule rule;
    rule.kind = faults::ChaosKind::ShortOp;
    rule.op = faults::ChaosOp::Both;
    rule.probability = 1.0;
    rule.maxBytes = 7;
    ASSERT_TRUE(schedule.add(rule).ok());
    auto injector = faults::installGlobalChaosInjector(schedule);
    ASSERT_NE(injector, nullptr);

    {
        WorkerHarness w1;
        GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());
        auto resp =
            request(gw.port(), httpPost("/v1/runs", runBody(81)));
        ASSERT_TRUE(resp.ok()) << resp.error().describe();
        EXPECT_EQ(resp.value().status, 200);
        const JsonValue doc = jsonBody(resp.value());
        EXPECT_EQ(doc.member("status")->asString(), "completed");
        EXPECT_EQ(doc.member("report")->asString(), directReport(81));
        EXPECT_GT(injector->stats().shortOps, 0u);
    }
    util::setGlobalSocketFaultInjector(nullptr);
}

TEST(GatewayE2E, DrainingGatewayRejectsNewConnectionsWith503)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());
    // Park one idle connection so the drain loop stays alive long
    // enough for the 503 race to be observable... actually the
    // listener closes on drain, so probe via connection refusal OR an
    // in-flight 503. Either terminal state is a correct drain answer.
    gw->requestDrain();
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    for (;;) {
        auto conn = util::connectLoopback(gw.port());
        if (!conn.ok())
            break; // listener closed: connection refused
        const std::string wire = httpGet("/v1/healthz");
        if (!conn.value().writeAll(wire.data(), wire.size()).ok())
            break; // raced the close
        HttpResponseParser parser;
        char buf[4096];
        bool gone = false;
        while (!parser.complete() && !parser.failed()) {
            auto chunk = conn.value().tryRead(buf, sizeof buf);
            if (!chunk.ok() || chunk.value().eof) {
                gone = true; // accepted-then-closed during drain
                break;
            }
            parser.feed(buf, chunk.value().bytes);
        }
        if (gone)
            break;
        if (parser.complete() &&
            parser.response().status == 503) {
            auto doc = JsonValue::parse(parser.response().body);
            ASSERT_TRUE(doc.ok());
            EXPECT_EQ(doc.value()
                          .member("error")->member("code")->asString(),
                      "unavailable");
            break;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(5ms);
    }
}

// The event loop owns the connection table; /v1/stats renders on a
// forwarder thread. Churning connections while polling the stats route
// must not touch loop-owned state off the loop (the TSan job runs this
// under `ctest -R Parallel`).
TEST(GatewayParallel, StatsWhileConnectionsChurn)
{
    WorkerHarness w1;
    GatewayHarness gw({{"127.0.0.1", w1.port()}}, fastOptions());
    const std::uint16_t port = gw.port();

    std::atomic<bool> stop{false};
    std::thread churn([port, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            auto conn = util::connectLoopback(port);
            (void)conn; // opened and dropped at once
        }
    });
    int served = 0;
    for (int i = 0; i < 50; ++i) {
        auto resp = request(port, httpGet("/v1/stats"));
        if (!resp.ok() || resp.value().status != 200)
            break;
        const JsonValue doc = jsonBody(resp.value());
        const JsonValue *active =
            doc.member("stats")
                ? doc.member("stats")->member("gateway.connections.active")
                : nullptr;
        if (active == nullptr || active->member("value") == nullptr ||
            !active->member("value")->isNumber())
            break;
        // The polling connection itself is open while the document renders.
        EXPECT_GE(active->member("value")->asNumber(), 1.0);
        ++served;
    }
    stop.store(true, std::memory_order_relaxed);
    churn.join();
    EXPECT_EQ(served, 50);
}

} // namespace
} // namespace ecolo::gateway
