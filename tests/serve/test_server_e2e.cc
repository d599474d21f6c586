/**
 * @file
 * In-process end-to-end tests for the serving stack: a real Server on
 * an ephemeral loopback port, driven through ServeClient over real
 * sockets. Covers the PR's acceptance criteria: a cold request's report
 * matches a direct engine render byte for byte, a repeated request is a
 * cache hit with identical bytes, validation errors, backpressure,
 * cancellation, stats, shutdown, and drain-checkpoint-resume
 * bit-identity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "gateway/gateway.hh"
#include "gateway/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "stat_reader.hh"
#include "util/keyvalue.hh"
#include "util/sim_time.hh"

namespace ecolo::serve {
namespace {

using namespace std::chrono_literals;
using test::readStat;
using test::readTail;

/** Server on an ephemeral port; drained and joined at scope exit. */
class ServerHarness
{
  public:
    explicit ServerHarness(ServerOptions options = {})
        : server_(std::move(options))
    {
        const auto started = server_.start();
        EXPECT_TRUE(started.ok()) << started.error().describe();
    }

    ~ServerHarness()
    {
        server_.requestDrain();
        server_.waitUntilStopped();
    }

    Server &operator*() { return server_; }
    Server *operator->() { return &server_; }
    ServeClient client() { return ServeClient(server_.port()); }

  private:
    Server server_;
};

RequestSpec
smallRequest(std::uint64_t seed, double days = 1.0)
{
    RequestSpec spec;
    spec.clientId = "test";
    spec.policy = "myopic";
    spec.horizonMinutes =
        static_cast<std::int64_t>(days * static_cast<double>(
            kMinutesPerDay));
    spec.scenarioText = "seed = " + std::to_string(seed) + "\n";
    return spec;
}

/** What the engine renders for this request, bypassing the server. */
std::string
directReport(const RequestSpec &spec)
{
    core::SimulationConfig config =
        core::SimulationConfig::paperDefault();
    std::istringstream is(spec.scenarioText);
    auto kv = KeyValueConfig::tryParse(is, "<test>");
    EXPECT_TRUE(kv.ok());
    EXPECT_TRUE(core::tryApplyScenario(kv.value(), config).ok());
    const double param = spec.paramSet
                             ? spec.param
                             : core::defaultPolicyParam(spec.policy);
    auto policy =
        core::tryMakePolicyByName(config, spec.policy, param);
    EXPECT_TRUE(policy.ok());
    core::Simulation sim(config, policy.take());
    sim.run(spec.horizonMinutes);
    core::ReportInputs inputs;
    inputs.policyName = spec.policy;
    inputs.policyParameter = param;
    inputs.simulatedDays =
        static_cast<double>(spec.horizonMinutes) /
        static_cast<double>(kMinutesPerDay);
    std::ostringstream os;
    core::writeMarkdownReport(os, config, sim.metrics(), inputs);
    return os.str();
}

TEST(ServeServerE2E, ColdRequestMatchesDirectEngineRender)
{
    ServerHarness harness;
    auto client = harness.client();
    const RequestSpec spec = smallRequest(4242);
    const auto outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    ASSERT_EQ(outcome.value().status, OutcomeStatus::Completed);
    EXPECT_FALSE(outcome.value().cacheHit);
    EXPECT_FALSE(outcome.value().report.empty());
    EXPECT_EQ(outcome.value().report, directReport(spec));
}

TEST(ServeServerE2E, RepeatedRequestIsAByteIdenticalCacheHit)
{
    ServerHarness harness;
    auto client = harness.client();
    const RequestSpec spec = smallRequest(777);

    const auto first = client.submit(spec);
    ASSERT_TRUE(first.ok()) << first.error().describe();
    ASSERT_EQ(first.value().status, OutcomeStatus::Completed);
    EXPECT_FALSE(first.value().cacheHit);

    const auto second = client.submit(spec);
    ASSERT_TRUE(second.ok()) << second.error().describe();
    ASSERT_EQ(second.value().status, OutcomeStatus::Completed);
    EXPECT_TRUE(second.value().cacheHit);
    EXPECT_EQ(second.value().report, first.value().report);

    EXPECT_EQ(readStat(*harness, "serve.cache.hits"), 1.0);
    EXPECT_EQ(readStat(*harness, "serve.cache.misses"), 1.0);

    // A scenario that differs only in comments/ordering also hits.
    RequestSpec reordered = spec;
    reordered.scenarioText =
        "# same thing, different text\n" + spec.scenarioText;
    const auto third = client.submit(reordered);
    ASSERT_TRUE(third.ok());
    EXPECT_TRUE(third.value().cacheHit);
    EXPECT_EQ(third.value().report, first.value().report);
}

TEST(ServeServerE2E, InvalidRequestsAreRejectedWithoutRunning)
{
    ServerHarness harness;
    auto client = harness.client();

    RequestSpec bad_policy = smallRequest(1);
    bad_policy.policy = "nonsense";
    auto outcome = client.submit(bad_policy);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().status, OutcomeStatus::Error);
    EXPECT_EQ(outcome.value().errorCode, RpcErrorCode::ValidationError);

    RequestSpec bad_scenario = smallRequest(1);
    bad_scenario.scenarioText = "this is not a key=value line\n";
    outcome = client.submit(bad_scenario);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().status, OutcomeStatus::Error);
    EXPECT_EQ(outcome.value().errorCode, RpcErrorCode::ParseError);

    RequestSpec bad_key = smallRequest(1);
    bad_key.scenarioText = "no.such.key = 1\n";
    outcome = client.submit(bad_key);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().status, OutcomeStatus::Error);

    RequestSpec bad_horizon = smallRequest(1);
    bad_horizon.horizonMinutes = 0;
    outcome = client.submit(bad_horizon);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().status, OutcomeStatus::Error);
    EXPECT_EQ(outcome.value().errorCode, RpcErrorCode::ValidationError);

    EXPECT_EQ(readStat(*harness, "serve.requests.submitted"), 0.0);
}

TEST(ServeServerE2E, BackpressureAnswersRetryAfter)
{
    ServerOptions options;
    options.numWorkers = 1;
    options.maxQueued = 1;
    options.retryAfterMs = 123;
    ServerHarness harness(options);

    // Fill the single worker and the single queue slot with year-long
    // runs (distinct seeds so neither is a cache hit), then submit a
    // third: it must bounce with RETRY_AFTER, not block or queue.
    std::atomic<std::uint64_t> id1{0}, id2{0};
    auto runner = [&](std::uint64_t seed,
                      std::atomic<std::uint64_t> &slot) {
        auto client = harness.client();
        const auto outcome = client.submit(
            smallRequest(seed, 365.0),
            [&](std::uint64_t id, const AcceptedPayload &) {
                slot.store(id);
            });
        EXPECT_TRUE(outcome.ok());
        EXPECT_EQ(outcome.value().status, OutcomeStatus::Cancelled);
    };
    std::thread t1(runner, 10, std::ref(id1));
    while (readStat(*harness, "serve.queue.running") == 0.0)
        std::this_thread::sleep_for(1ms);
    std::thread t2(runner, 11, std::ref(id2));
    while (readStat(*harness, "serve.queue.depth") == 0.0)
        std::this_thread::sleep_for(1ms);

    auto client = harness.client();
    const auto rejected = client.submit(smallRequest(12, 365.0));
    ASSERT_TRUE(rejected.ok()) << rejected.error().describe();
    EXPECT_EQ(rejected.value().status, OutcomeStatus::RetryLater);
    EXPECT_EQ(rejected.value().retryAfterMs, 123u);
    EXPECT_GE(readStat(*harness, "serve.requests.rejected_queue_full"), 1.0);

    // Put the fleet out of its misery.
    while (id1.load() == 0 || id2.load() == 0)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(client.cancel(id1.load()).value());
    EXPECT_TRUE(client.cancel(id2.load()).value());
    t1.join();
    t2.join();
}

TEST(ServeServerE2E, CancellationStopsARunMidFlight)
{
    ServerHarness harness;
    auto client = harness.client();

    std::atomic<std::uint64_t> request_id{0};
    std::thread canceller;
    const auto outcome = client.submit(
        smallRequest(99, 3650.0),
        [&](std::uint64_t id, const AcceptedPayload &accepted) {
            EXPECT_FALSE(accepted.cacheHit);
            request_id.store(id);
            canceller = std::thread([&harness, id] {
                auto side = harness.client();
                // Let the run make some progress first.
                std::this_thread::sleep_for(50ms);
                const auto ack = side.cancel(id);
                EXPECT_TRUE(ack.ok());
                EXPECT_TRUE(ack.value());
            });
        });
    canceller.join();
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    EXPECT_EQ(outcome.value().status, OutcomeStatus::Cancelled);
    EXPECT_LT(outcome.value().minutesDone,
              3650 * kMinutesPerDay);
    // The CANCELLED frame is written inside the job body; the scheduler
    // counts the job only after the body returns, so allow it a moment.
    for (int i = 0;
         i < 2000 && readStat(*harness, "serve.requests.cancelled") == 0.0;
         ++i)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(readStat(*harness, "serve.requests.cancelled"), 1.0);

    // Cancelling an unknown id reports not-found.
    const auto missing = client.cancel(555555);
    ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(missing.value());
}

TEST(ServeServerE2E, DeadlineExpiryMidRunAnswersDeadlineExceeded)
{
    ServerHarness harness;
    auto client = harness.client();

    // A decade-long run with a tiny wall budget: the cooperative check
    // inside the simulation must trip and answer a typed error.
    RequestSpec spec = smallRequest(42, 3650.0);
    spec.deadlineMs = 50;
    const auto outcome = client.submit(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    ASSERT_EQ(outcome.value().status, OutcomeStatus::Error);
    EXPECT_EQ(outcome.value().errorCode, RpcErrorCode::DeadlineExceeded);
    EXPECT_NE(outcome.value().errorMessage.find("deadline"),
              std::string::npos);
    for (int i = 0;
         i < 2000 &&
         readStat(*harness, "serve.requests.deadline_exceeded") == 0.0;
         ++i)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(readStat(*harness, "serve.requests.deadline_exceeded"), 1.0);

    // A generous budget on a short run completes normally.
    RequestSpec fine = smallRequest(42);
    fine.deadlineMs = 5 * 60 * 1000;
    const auto ok_outcome = client.submit(fine);
    ASSERT_TRUE(ok_outcome.ok());
    EXPECT_EQ(ok_outcome.value().status, OutcomeStatus::Completed);
}

TEST(ServeServerE2E, PerLaneLatencyIsRecorded)
{
    ServerHarness harness;
    auto client = harness.client();
    ASSERT_EQ(client.submit(smallRequest(8)).value().status,
              OutcomeStatus::Completed);
    RequestSpec batch = smallRequest(8);
    batch.priority = Priority::Batch;
    ASSERT_EQ(client.submit(batch).value().status,
              OutcomeStatus::Completed);

    // Latency accounting runs after the RESULT frame; give it a beat.
    for (int i = 0;
         i < 2000 &&
         (readTail(*harness, "serve.latency.interactive").count == 0 ||
          readTail(*harness, "serve.latency.batch").count == 0);
         ++i)
        std::this_thread::sleep_for(1ms);
    const auto interactive =
        readTail(*harness, "serve.latency.interactive");
    ASSERT_EQ(interactive.count, 1u);
    EXPECT_GT(interactive.p99, 0.0);
    // The batch request was a cache hit (same content key): still
    // counted, against its own lane.
    EXPECT_EQ(readTail(*harness, "serve.latency.batch").count, 1u);

    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats.value().find("\"serve.latency.interactive.p99_us\""),
              std::string::npos);
    EXPECT_NE(stats.value().find("\"serve.latency.batch.count\""),
              std::string::npos);
}

TEST(ServeServerE2E, RetryingClientAbsorbsBackpressure)
{
    // One worker, queue of one: the second concurrent submit bounces
    // with RETRY_AFTER, and submitWithRetry must eventually land it.
    ServerOptions options;
    options.numWorkers = 1;
    options.maxQueued = 1;
    options.retryAfterMs = 20;
    ServerHarness harness(options);

    // Two long submissions occupy the worker and the single queue slot.
    std::vector<std::thread> blockers;
    std::atomic<int> accepted{0};
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        blockers.emplace_back([&harness, &accepted, seed] {
            auto blocker_client = harness.client();
            RetryPolicy keep_trying;
            keep_trying.maxAttempts = 200;
            keep_trying.baseBackoffMs = 5;
            keep_trying.maxBackoffMs = 50;
            keep_trying.jitterSeed = seed;
            (void)blocker_client.submitWithRetry(
                smallRequest(seed, 120.0), keep_trying, nullptr,
                [&accepted](std::uint64_t, const AcceptedPayload &) {
                    accepted.fetch_add(1);
                });
        });
    }
    for (int i = 0; i < 2000 && accepted.load() < 2; ++i)
        std::this_thread::sleep_for(1ms);
    ASSERT_EQ(accepted.load(), 2);

    auto client = harness.client();
    RetryPolicy policy;
    policy.maxAttempts = 200;
    policy.baseBackoffMs = 5;
    policy.maxBackoffMs = 50;
    policy.jitterSeed = 3;
    std::size_t attempts = 0;
    const auto outcome =
        client.submitWithRetry(smallRequest(3), policy, &attempts);
    for (std::thread &blocker : blockers)
        blocker.join();
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    EXPECT_EQ(outcome.value().status, OutcomeStatus::Completed);
    EXPECT_GE(attempts, 2u); // at least one RETRY_AFTER bounce absorbed
}

TEST(ServeServerE2E, StatsEndpointServesMetricsJson)
{
    ServerHarness harness;
    auto client = harness.client();
    ASSERT_EQ(client.submit(smallRequest(5)).value().status,
              OutcomeStatus::Completed);
    ASSERT_EQ(client.submit(smallRequest(5)).value().status,
              OutcomeStatus::Completed);

    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.error().describe();
    EXPECT_NE(stats.value().find("edgetherm-metrics-v1"),
              std::string::npos);
    EXPECT_NE(stats.value().find("\"serve.cache.hits\""),
              std::string::npos);
    EXPECT_NE(stats.value().find("\"serve.requests.completed\""),
              std::string::npos);
}

TEST(ServeServerE2E, MetricsDocumentsArePerInstance)
{
    // Two servers and a gateway in one process, with different cache
    // traffic: each server's document reports its own serve.cache.hits
    // and carries no other component's stats.
    ServerHarness warm;
    ServerHarness cold;
    auto warm_client = warm.client();
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(warm_client.submit(smallRequest(6)).value().status,
                  OutcomeStatus::Completed);
    auto cold_client = cold.client();
    ASSERT_EQ(cold_client.submit(smallRequest(6)).value().status,
              OutcomeStatus::Completed);
    gateway::GatewayOptions gw_options;
    gw_options.workers = {{"127.0.0.1", warm->port()}};
    gw_options.pool.probeIntervalMs = 0;
    gateway::Gateway gw(gw_options);
    (void)gw.metricsJson(); // the gateway's stats exist in this process

    const auto check = [](ServeClient &client, double hits) {
        const auto doc = client.stats();
        ASSERT_TRUE(doc.ok()) << doc.error().describe();
        auto parsed = gateway::JsonValue::parse(doc.value());
        ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
        const gateway::JsonValue *stats = parsed.value().member("stats");
        ASSERT_NE(stats, nullptr);
        const gateway::JsonValue *stat = stats->member("serve.cache.hits");
        ASSERT_NE(stat, nullptr);
        ASSERT_NE(stat->member("value"), nullptr);
        EXPECT_EQ(stat->member("value")->asNumber(), hits);
        for (const auto &[name, value] : stats->members())
            EXPECT_NE(name.rfind("gateway.", 0), 0u) << name;
    };
    check(warm_client, 2.0);
    check(cold_client, 0.0);
    EXPECT_EQ(readStat(*warm, "serve.cache.hits"), 2.0);
    EXPECT_EQ(readStat(*cold, "serve.cache.hits"), 0.0);
}

TEST(ServeServerE2E, ShutdownFrameDrainsTheServer)
{
    ServerHarness harness;
    auto client = harness.client();
    ASSERT_TRUE(client.shutdown().ok());
    harness->waitUntilStopped();
    EXPECT_FALSE(harness->running());

    // New submissions are refused (connect or submit fails).
    auto late = client.submit(smallRequest(1));
    if (late.ok())
        EXPECT_NE(late.value().status, OutcomeStatus::Completed);
}

TEST(ServeServerE2E, DrainCheckpointsInFlightAndResumesBitIdentically)
{
    const std::string spool = ::testing::TempDir() + "serve_spool";
    ASSERT_EQ(std::system(("mkdir -p '" + spool + "'").c_str()), 0);

    RequestSpec spec = smallRequest(31337, 3650.0);
    std::uint64_t request_id = 0;
    std::string checkpoint_path;
    std::int64_t minutes_done = 0;
    {
        ServerOptions options;
        options.numWorkers = 1;
        options.drainCheckpointDir = spool;
        options.statusEveryMinutes = kMinutesPerDay;
        ServerHarness harness(options);
        auto client = harness.client();

        // Drain only once a STATUS frame proves the run made progress,
        // so the checkpoint is guaranteed to be mid-flight.
        std::atomic<bool> progressed{false};
        std::thread drainer([&] {
            while (!progressed.load())
                std::this_thread::sleep_for(1ms);
            harness->requestDrain();
        });
        const auto outcome = client.submit(
            spec,
            [&](std::uint64_t id, const AcceptedPayload &) {
                request_id = id;
            },
            [&](const StatusPayload &status) {
                if (status.minutesDone > 0)
                    progressed.store(true);
            });
        drainer.join();
        ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
        ASSERT_EQ(outcome.value().status, OutcomeStatus::Drained);
        checkpoint_path = outcome.value().checkpointPath;
        minutes_done = outcome.value().minutesDone;
        ASSERT_FALSE(checkpoint_path.empty());
        ASSERT_GT(minutes_done, 0);
    }

    // Resume the checkpoint and run to a 3-day horizon; it must match
    // an uninterrupted 3-day run bit for bit. (3 days, not the full 10
    // years -- bit-identity is established at the first divergence.)
    core::SimulationConfig config =
        core::SimulationConfig::paperDefault();
    {
        std::istringstream is(spec.scenarioText);
        auto kv = KeyValueConfig::tryParse(is, "<test>");
        ASSERT_TRUE(kv.ok());
        ASSERT_TRUE(core::tryApplyScenario(kv.value(), config).ok());
    }
    const double param = core::defaultPolicyParam(spec.policy);
    const MinuteIndex horizon = minutes_done + 3 * kMinutesPerDay;

    core::Simulation resumed(
        config,
        core::tryMakePolicyByName(config, spec.policy, param).take());
    const auto loaded = core::loadSimulationCheckpoint(
        checkpoint_path, resumed, spec.policy);
    ASSERT_TRUE(loaded.ok()) << loaded.error().describe();
    ASSERT_EQ(resumed.now(), minutes_done);
    resumed.run(horizon - resumed.now());

    core::Simulation reference(
        config,
        core::tryMakePolicyByName(config, spec.policy, param).take());
    reference.run(horizon);

    std::ostringstream resumed_report, reference_report;
    core::ReportInputs inputs;
    inputs.policyName = spec.policy;
    inputs.policyParameter = param;
    inputs.simulatedDays = static_cast<double>(horizon) /
                           static_cast<double>(kMinutesPerDay);
    core::writeMarkdownReport(resumed_report, config, resumed.metrics(),
                              inputs);
    core::writeMarkdownReport(reference_report, config,
                              reference.metrics(), inputs);
    EXPECT_EQ(resumed_report.str(), reference_report.str());
    std::remove(checkpoint_path.c_str());
}

TEST(ServeServerE2E, ConcurrentMixedClientsAllResolve)
{
    ServerOptions options;
    options.numWorkers = 2;
    options.maxQueued = 64;
    ServerHarness harness(options);

    // Pre-warm the three distinct scenarios serially so the concurrent
    // phase is deterministic: identical requests racing an in-flight
    // first run would otherwise all miss (the cache has no coalescing).
    {
        auto warm = harness.client();
        for (int s = 0; s < 3; ++s) {
            const auto outcome = warm.submit(
                smallRequest(static_cast<std::uint64_t>(1000 + s), 0.25));
            ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
            ASSERT_EQ(outcome.value().status, OutcomeStatus::Completed);
            EXPECT_FALSE(outcome.value().cacheHit);
        }
    }

    constexpr int kThreads = 6;
    std::atomic<int> completed{0};
    std::atomic<int> cache_hits{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            auto client = harness.client();
            RequestSpec spec = smallRequest(
                static_cast<std::uint64_t>(1000 + t % 3), 0.25);
            spec.clientId = "tenant-" + std::to_string(t);
            spec.priority = (t % 2 == 0) ? Priority::Interactive
                                         : Priority::Batch;
            for (;;) {
                const auto outcome = client.submit(spec);
                ASSERT_TRUE(outcome.ok())
                    << outcome.error().describe();
                if (outcome.value().status ==
                    OutcomeStatus::RetryLater) {
                    std::this_thread::sleep_for(10ms);
                    continue;
                }
                ASSERT_EQ(outcome.value().status,
                          OutcomeStatus::Completed);
                completed.fetch_add(1);
                if (outcome.value().cacheHit)
                    cache_hits.fetch_add(1);
                return;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(completed.load(), kThreads);
    // Every concurrent request repeats warmed content: all six hit.
    EXPECT_EQ(cache_hits.load(), kThreads);
    EXPECT_EQ(readStat(*harness, "serve.cache.misses"), 3.0);
    EXPECT_EQ(readStat(*harness, "serve.cache.hits"),
              static_cast<std::uint64_t>(kThreads));
}

} // namespace
} // namespace ecolo::serve
