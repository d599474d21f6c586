/**
 * @file
 * Equivalence properties for the serving stack's one executor, which
 * runs each admitted request alone: every completed request must be
 * byte-identical to a direct Simulation::run render under concurrent
 * clients, and per-request semantics -- cancellation, deadlines,
 * chaos-injected transport faults -- must hold while other requests
 * run beside it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/setup_cache.hh"
#include "faults/chaos.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/keyvalue.hh"
#include "util/sim_time.hh"
#include "util/socket.hh"

namespace ecolo::serve {
namespace {

using namespace std::chrono_literals;

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

ServerOptions
concurrentOptions()
{
    ServerOptions options;
    options.numWorkers = 2;
    options.maxQueued = 64;
    return options;
}

std::uint64_t
setupHits(const core::SetupCache::Counters &setup)
{
    return setup.traceHits + setup.scaleHits + setup.matrixHits +
           setup.factorizationHits;
}

RequestSpec
campaignRequest(double param, double days = 1.0)
{
    RequestSpec spec;
    spec.clientId = "identity";
    spec.priority = Priority::Batch;
    spec.policy = "myopic";
    spec.param = param;
    spec.paramSet = true;
    spec.horizonMinutes = static_cast<std::int64_t>(
        days * static_cast<double>(kMinutesPerDay));
    spec.scenarioText = "seed = 42\n";
    return spec;
}

/**
 * What the engine renders for this request, bypassing the server. The
 * shared setup cache only speeds construction up across calls; cache
 * hits are bit-identical by design (test_lane_batch proves it), so the
 * rendered ground truth is unaffected.
 */
std::string
directReport(const RequestSpec &spec,
             const std::shared_ptr<core::SetupCache> &setup)
{
    core::SimulationConfig config =
        core::SimulationConfig::paperDefault();
    std::istringstream is(spec.scenarioText);
    auto kv = KeyValueConfig::tryParse(is, "<test>");
    EXPECT_TRUE(kv.ok());
    EXPECT_TRUE(core::tryApplyScenario(kv.value(), config).ok());
    config.setupCache = setup;
    const double param = spec.paramSet
                             ? spec.param
                             : core::defaultPolicyParam(spec.policy);
    auto policy = core::tryMakePolicyByName(config, spec.policy, param);
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

TEST(ServeBatchedIdentity, SingleLaneCampaignMatchesDirectRenderByteForByte)
{
    ServerHarness harness(concurrentOptions());

    // The shared setup cache: a second request with the same scenario
    // reuses the first one's setup artifacts.
    {
        auto client = harness.client();
        for (const double param : {4.0, 4.1}) {
            const auto outcome =
                client.submitWithRetry(campaignRequest(param),
                                       RetryPolicy{});
            ASSERT_TRUE(outcome.ok());
            ASSERT_EQ(outcome.value().status, OutcomeStatus::Completed);
        }
        EXPECT_GT(setupHits(harness->setupCacheCounters()), 0u);
    }

    // 8 concurrent clients, same scenario seed, swept policy parameter
    // (8 distinct results: the result cache cannot short-circuit any
    // member).
    constexpr int kRequests = 8;
    std::vector<std::string> reports(kRequests);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        clients.emplace_back([&, i] {
            auto client = harness.client();
            RequestSpec spec =
                campaignRequest(5.0 + 0.1 * static_cast<double>(i));
            spec.clientId = "identity-" + std::to_string(i % 4);
            const auto outcome =
                client.submitWithRetry(spec, RetryPolicy{});
            if (!outcome.ok() ||
                outcome.value().status != OutcomeStatus::Completed) {
                failures.fetch_add(1);
                return;
            }
            reports[static_cast<std::size_t>(i)] =
                outcome.value().report;
        });
    }
    for (std::thread &t : clients)
        t.join();
    ASSERT_EQ(failures.load(), 0);

    // Every response is byte-identical to the direct render.
    auto shared = std::make_shared<core::SetupCache>();
    for (int i = 0; i < kRequests; ++i) {
        const RequestSpec spec =
            campaignRequest(5.0 + 0.1 * static_cast<double>(i));
        EXPECT_EQ(reports[static_cast<std::size_t>(i)],
                  directReport(spec, shared))
            << "member " << i << " diverged";
    }

    // Set-up reuse and batch-lane queueing surface in the metrics.
    const std::string metrics = harness->metricsJson();
    EXPECT_NE(metrics.find("serve.setup_cache.hits"), std::string::npos);
    EXPECT_NE(metrics.find("serve.latency.batch.queue_wait"),
              std::string::npos);
}

TEST(ServeBatchedIdentity, SingleLaneCancelAndDeadlineMixKeepsSemantics)
{
    ServerHarness harness(concurrentOptions());

    // A seeded shuffle of three request kinds, all submitted
    // concurrently so live, pre-expired, and soon-to-be cancelled
    // requests share the workers:
    //  - "normal": 1-day horizon, must complete byte-identically;
    //  - "expired": 1-day horizon with a 1 ms budget, must answer
    //    DEADLINE_EXCEEDED;
    //  - "cancelled": 10-year horizon, cancelled right after ACCEPTED,
    //    must answer CANCELLED.
    enum class Kind
    {
        Normal,
        Expired,
        Cancelled
    };
    std::vector<Kind> mix = {Kind::Normal,    Kind::Normal,
                             Kind::Normal,    Kind::Normal,
                             Kind::Expired,   Kind::Expired,
                             Kind::Cancelled, Kind::Cancelled};
    std::mt19937 rng(20260808);
    std::shuffle(mix.begin(), mix.end(), rng);

    std::mutex mu;
    std::vector<std::pair<RequestSpec, std::string>> completed;
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    threads.reserve(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
        threads.emplace_back([&, i, kind = mix[i]] {
            auto client = harness.client();
            RequestSpec spec =
                campaignRequest(5.0 + 0.1 * static_cast<double>(i));
            spec.clientId = "mix-" + std::to_string(i % 3);
            switch (kind) {
            case Kind::Normal: {
                const auto outcome =
                    client.submitWithRetry(spec, RetryPolicy{});
                if (!outcome.ok() || outcome.value().status !=
                                         OutcomeStatus::Completed) {
                    bad.fetch_add(1);
                    return;
                }
                std::lock_guard<std::mutex> lock(mu);
                completed.emplace_back(spec, outcome.value().report);
                return;
            }
            case Kind::Expired: {
                spec.deadlineMs = 1;
                const auto outcome =
                    client.submitWithRetry(spec, RetryPolicy{});
                if (!outcome.ok() ||
                    outcome.value().status != OutcomeStatus::Error ||
                    outcome.value().errorCode !=
                        RpcErrorCode::DeadlineExceeded)
                    bad.fetch_add(1);
                return;
            }
            case Kind::Cancelled: {
                spec.horizonMinutes = 3650 * kMinutesPerDay;
                std::thread canceller;
                const auto outcome = client.submit(
                    spec,
                    [&](std::uint64_t id, const AcceptedPayload &) {
                        canceller = std::thread([&harness, id] {
                            auto side = harness.client();
                            const auto ack = side.cancel(id);
                            EXPECT_TRUE(ack.ok());
                        });
                    });
                if (canceller.joinable())
                    canceller.join();
                if (!outcome.ok() || outcome.value().status !=
                                         OutcomeStatus::Cancelled)
                    bad.fetch_add(1);
                return;
            }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    // Every request that completed is byte-identical to the direct
    // render.
    ASSERT_EQ(completed.size(), 4u);
    auto shared = std::make_shared<core::SetupCache>();
    for (const auto &[spec, report] : completed)
        EXPECT_EQ(report, directReport(spec, shared));
}

TEST(ServeBatchedIdentity, SingleLaneChaoticTransportStaysByteIdentical)
{
    // Benign unbounded chaos on every socket: delays and 7-byte
    // fragments. The retry client must reassemble responses that are
    // byte-identical to a calm-network direct render even when the
    // server is streaming frames for several requests at once.
    faults::ChaosSchedule schedule;
    schedule.setSeed(20260808);
    faults::ChaosRule shortOp;
    shortOp.kind = faults::ChaosKind::ShortOp;
    shortOp.op = faults::ChaosOp::Both;
    shortOp.probability = 0.2;
    shortOp.maxBytes = 7;
    ASSERT_TRUE(schedule.add(shortOp).ok());
    faults::ChaosRule delay;
    delay.kind = faults::ChaosKind::Delay;
    delay.op = faults::ChaosOp::Write;
    delay.probability = 0.05;
    delay.delayMs = 5;
    delay.maxTriggers = 40;
    ASSERT_TRUE(schedule.add(delay).ok());
    auto injector = faults::installGlobalChaosInjector(schedule);
    ASSERT_NE(injector, nullptr);

    {
        ServerHarness harness(concurrentOptions());
        constexpr int kRequests = 6;
        std::vector<std::string> reports(kRequests);
        std::atomic<int> failures{0};
        std::vector<std::thread> clients;
        for (int i = 0; i < kRequests; ++i) {
            clients.emplace_back([&, i] {
                auto client = harness.client();
                const RequestSpec spec = campaignRequest(
                    6.0 + 0.1 * static_cast<double>(i), 0.5);
                const auto outcome =
                    client.submitWithRetry(spec, RetryPolicy{});
                if (!outcome.ok() ||
                    outcome.value().status != OutcomeStatus::Completed) {
                    failures.fetch_add(1);
                    return;
                }
                reports[static_cast<std::size_t>(i)] =
                    outcome.value().report;
            });
        }
        for (std::thread &t : clients)
            t.join();
        ASSERT_EQ(failures.load(), 0);
        EXPECT_GT(injector->stats().shortOps, 0u);

        auto shared = std::make_shared<core::SetupCache>();
        for (int i = 0; i < kRequests; ++i) {
            const RequestSpec spec = campaignRequest(
                6.0 + 0.1 * static_cast<double>(i), 0.5);
            EXPECT_EQ(reports[static_cast<std::size_t>(i)],
                      directReport(spec, shared));
        }
    }
    util::setGlobalSocketFaultInjector(nullptr);
}

} // namespace
} // namespace ecolo::serve
