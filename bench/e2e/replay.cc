#include "replay.hh"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "client.hh"
#include "core/engine.hh"
#include "core/lane_batch.hh"
#include "core/report.hh"
#include "core/setup_cache.hh"
#include "gateway/cluster.hh"
#include "gateway/http.hh"
#include "gateway/json.hh"
#include "power/layout.hh"
#include "power/tenant.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "sidechannel/voltage_channel.hh"
#include "thermal/environment.hh"
#include "trace/generators.hh"
#include "util/rng.hh"
#include "util/sim_time.hh"
#include "util/socket.hh"

namespace e2e {

namespace core = ecolo::core;
namespace gw = ecolo::gateway;
namespace serve = ecolo::serve;
namespace thermal = ecolo::thermal;
namespace util = ecolo::util;

namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::pair<std::string, double>>;

void
addRow(Rows &rows, const std::string &layer, double ms)
{
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const auto &r) { return r.first == layer; });
    if (it == rows.end())
        rows.emplace_back(layer, ms);
    else
        it->second += ms;
}

double
total(const Rows &rows)
{
    double t = 0.0;
    for (const auto &r : rows)
        t += r.second;
    return t;
}

/** The layers a workload is predicted to spend most of its time in. */
struct LayerGroup
{
    const char *name;
    std::set<std::string> layers;
};

const LayerGroup &
predictedGroup(const std::string &workload)
{
    static const LayerGroup cold{
        "cold set-up",
        {"trace.generate", "power.scale", "thermal.matrix",
         "thermal.factorize", "core.setup_warm"}};
    static const LayerGroup sweep{
        "warm set-up + batch loop",
        {"core.setup_warm", "core.lane_loop", "core.loop"}};
    static const LayerGroup loop{"slot loop", {"core.loop"}};
    static const LayerGroup front{
        "front end",
        {"gateway.http.parse", "gateway.http.io", "gateway.json.parse",
         "gateway.json.quote", "gateway.http.respond", "gateway.cluster.rank",
         "serve.prepare", "serve.protocol.submit", "serve.protocol.result",
         "serve.rpc.roundtrip", "serve.result_cache.lookup"}};
    if (workload == "cold_interactive")
        return cold;
    if (workload == "sweep_batched")
        return sweep;
    if (workload == "long_horizon")
        return loop;
    return front;
}

std::string
render(const core::SimulationConfig &config, const core::Simulation &sim,
       const serve::SubmitPayload &payload)
{
    std::ostringstream os;
    core::ReportInputs inputs;
    inputs.policyName = payload.policy;
    inputs.policyParameter = payload.param;
    inputs.simulatedDays = static_cast<double>(payload.horizonMinutes) /
                           static_cast<double>(ecolo::kMinutesPerDay);
    core::writeMarkdownReport(os, config, sim.metrics(), inputs);
    return os.str();
}

std::string
describeRun(const RunSpec &s)
{
    std::ostringstream os;
    os << "run " << s.id << " (" << s.policy << " " << s.param << ", seed "
       << s.scenarioSeed << ", " << s.horizonMinutes << " min)";
    return os.str();
}

std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return "reports differ from byte " + std::to_string(i) + " (" +
           std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
           " bytes)";
}

/**
 * The engine's benign-trace synthesis, called through the public
 * generators: the engine forks its trace stream from Rng(seed) before
 * anything else draws from it, then jitters the default diurnal shape
 * per tenant. Only the default trace kind is replayed; the report
 * comparison catches any drift from the engine.
 */
core::SetupCache::TraceSet
generateTraces(const core::SimulationConfig &config)
{
    ecolo::Rng rng(config.seed);
    ecolo::Rng traceRng = rng.fork();
    core::SetupCache::TraceSet set(config.numBenignTenants);
    for (std::size_t k = 0; k < set.size(); ++k) {
        const double kd = static_cast<double>(k);
        ecolo::trace::DiurnalTraceGenerator::Params params =
            config.diurnalParams;
        params.peakHour += 0.4 * (kd - 1.0);
        params.baseUtilization += 0.02 * (kd - 1.0);
        params.burstsPerDay += kd;
        set[k] = ecolo::trace::DiurnalTraceGenerator(params).generate(
            ecolo::kMinutesPerYear, traceRng);
    }
    return set;
}

/** Tenants carrying `traces`, and the mean-power target, as the engine
 * builds them before its scale solve. */
struct ScaleInputs
{
    std::vector<ecolo::power::Tenant> tenants;
    ecolo::Kilowatts target{0.0};
};

ScaleInputs
scaleInputs(const core::SimulationConfig &config,
            const core::SetupCache::TraceSet &traces)
{
    ScaleInputs in;
    in.tenants.reserve(config.numBenignTenants);
    for (std::size_t k = 0; k < config.numBenignTenants; ++k) {
        in.tenants.emplace_back("tenant-" + std::to_string(k + 1),
                                config.benignSubscription(),
                                config.serversPerBenignTenant(),
                                config.serverSpec);
        in.tenants.back().setTrace(traces[k]);
    }
    const ecolo::Kilowatts standby =
        config.serverSpec.powerAt(config.attackerStandbyUtilization) *
        static_cast<double>(config.attackerNumServers);
    in.target = config.capacity * config.averageUtilization - standby;
    return in;
}

} // namespace

// ---- Oracle ----

bool
renderReport(const RunSpec &spec,
             const std::shared_ptr<core::SetupCache> &cache,
             std::string &report, std::string &error)
{
    serve::SubmitPayload payload = spec.payload();
    auto prepared = serve::prepareSubmitPayload(payload, maxHorizonMinutes());
    if (!prepared) {
        error = prepared.error().message;
        return false;
    }
    core::SimulationConfig config = prepared.value().config;
    config.setupCache = cache;
    auto policy =
        core::tryMakePolicyByName(config, payload.policy, payload.param);
    if (!policy) {
        error = policy.error().message;
        return false;
    }
    core::Simulation sim(config, policy.take());
    sim.run(spec.horizonMinutes);
    report = render(config, sim, payload);
    return true;
}

std::size_t
checkAgainstOracle(const std::vector<RunSpec> &specs,
                   const std::vector<std::string> &live, int threads,
                   std::vector<std::string> &errors)
{
    auto cache = std::make_shared<core::SetupCache>();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> mismatches{0};
    std::mutex errorMutex;
    const auto worker = [&] {
        for (std::size_t i = next++; i < specs.size(); i = next++) {
            std::string report;
            std::string error;
            if (!renderReport(specs[i], cache, report, error))
                error = "cannot render in-process: " + error;
            else if (report != live[i])
                error = firstDifference(live[i], report);
            if (error.empty())
                continue;
            ++mismatches;
            std::lock_guard<std::mutex> lock(errorMutex);
            if (errors.size() < 5)
                errors.push_back(describeRun(specs[i]) + ": " + error);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return mismatches;
}

// ---- Replay ----

struct Replay::State
{
    const Plan &plan;
    const Placement &placement;
    std::vector<std::string> labels;
    std::size_t lanes;
    std::string dir;
    std::map<std::string, std::vector<double>> &costs;
    std::vector<std::string> &mismatches;

    struct Event
    {
        std::string name;
        double ts = 0.0;
        double dur = 0.0;
        std::size_t req = 0;
        int tid = 0;
    };
    Clock::time_point origin = Clock::now();
    std::vector<Event> events;
    /** Call index the current spans belong to; SIZE_MAX for probes. */
    std::size_t req = SIZE_MAX;

    /** Per-worker result caches, sized as a default worker's. */
    std::vector<std::unique_ptr<serve::ResultCache>> caches;
    /** Set-up artifacts of the warm scenario, shared like a worker's. */
    std::shared_ptr<core::SetupCache> warm;
    std::shared_ptr<const thermal::HeatDistributionMatrix> matrix;
    std::shared_ptr<const thermal::TemporalFactorization> factors;
    double matrixMs = 0.0;
    double factorizeMs = 0.0;
    std::unique_ptr<serve::RequestJournal> journal;
    std::uint64_t nextJournalId = 1;
    util::TcpListener rpcListener;

    /** A keep-alive loopback connection whose far end answers on its
     * own thread, as the gateway process does. */
    util::TcpConnection httpClient;
    util::TcpConnection httpServer;
    std::mutex echoMutex;
    std::size_t echoExpect = 0; //!< request bytes before answering
    std::string echoResponse;
    std::thread echo; //!< declared after the state it uses

    State(const Plan &p, const Placement &pl, std::vector<std::string> l,
          std::size_t k, std::string d,
          std::map<std::string, std::vector<double>> &c,
          std::vector<std::string> &m)
        : plan(p), placement(pl), labels(std::move(l)), lanes(k),
          dir(std::move(d)), costs(c), mismatches(m)
    {}

    ~State()
    {
        // EOF on the server side ends the echo thread.
        httpClient.close();
        if (echo.joinable())
            echo.join();
    }

    State(const State &) = delete;
    State &operator=(const State &) = delete;

    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin)
            .count();
    }

    /** Time `f` as one span of `layer` on track `tid`, add it to `rows`
     * and return its duration in microseconds. */
    template <typename F>
    double time(Rows &rows, const std::string &layer, int tid, F &&f)
    {
        const double start = nowUs();
        f();
        const double us = nowUs() - start;
        events.push_back(Event{layer, start, us, req, tid});
        addRow(rows, layer, us / 1e3);
        return us;
    }

    void cost(const std::string &metric, double value)
    {
        costs[metric].push_back(value);
    }

    bool init(std::string &error);
    void prefill(const DriveResult &drive, const std::set<std::size_t> &skip);
    double rpcRoundTrip(const std::string &submit, const std::string &report,
                        std::string &error);
    double httpExchange(const std::string &request,
                        const std::string &response, std::string &error);

    /** A run inside a replayed call, from RPC arrival to RPC answer. */
    struct Run
    {
        RunSpec spec;
        std::size_t worker = 0;
        const std::string *liveReport = nullptr;
        serve::SubmitPayload payload;
        core::SimulationConfig config;
        serve::CacheKey key;
        std::unique_ptr<core::Simulation> sim;
        std::string report;
        bool hit = false;
        std::uint64_t journalId = 0;
        double journalUs = 0.0;
    };

    bool gatewayPrepare(Rows &rows, Run &run);
    bool arrive(Rows &rows, Run &run, bool cold);
    void conclude(Rows &rows, Run &run);
    void loopScalar(Rows &rows, Run &run);
    void loopBatch(Rows &rows, std::vector<Run *> &batch);

    /** Replay call `c` of `drive` and split its latency into `out`. */
    bool replayCall(const DriveResult &drive, std::size_t c, bool cold,
                    Budget &out, std::string &error);
    /** Per-call costs for layers no sampled call reached. */
    bool probeLayers(bool cold, std::string &error);
    void kernelProbes();
};

bool
Replay::State::init(std::string &error)
{
    const serve::ServerOptions defaults;
    for (std::size_t w = 0; w < labels.size(); ++w)
        caches.push_back(std::make_unique<serve::ResultCache>(
            defaults.cacheMaxBytes, defaults.cacheMaxEntries));

    auto journalOpened = serve::RequestJournal::open(dir + "/replay-journal");
    if (!journalOpened) {
        error = journalOpened.error().message;
        return false;
    }
    journal = std::make_unique<serve::RequestJournal>(journalOpened.take());

    auto listener = util::TcpListener::listenLoopback(0);
    if (!listener) {
        error = listener.error().message;
        return false;
    }
    rpcListener = listener.take();
    auto httpListener = util::TcpListener::listenLoopback(0);
    if (!httpListener) {
        error = httpListener.error().message;
        return false;
    }
    auto client = util::connectLoopback(httpListener.value().port());
    auto accepted = httpListener.value().acceptFor(5000);
    if (!client || !accepted || !accepted.value().has_value()) {
        error = "cannot open the loopback HTTP pair";
        return false;
    }
    httpClient = client.take();
    httpServer = std::move(*accepted.value());
    echo = std::thread([this] {
        char buf[65536];
        std::size_t got = 0;
        for (;;) {
            auto chunk = httpServer.tryRead(buf, sizeof buf);
            if (!chunk || chunk.value().eof)
                return;
            got += chunk.value().bytes;
            std::string response;
            {
                std::lock_guard<std::mutex> lock(echoMutex);
                if (got < echoExpect)
                    continue;
                response = echoResponse;
            }
            got = 0;
            if (!httpServer.writeAll(response.data(), response.size()))
                return;
        }
    });

    // The shared thermal artifacts every worker builds once (timed here
    // as the cold-split probes), then the warm scenario's set-up.
    const std::vector<RunSpec> specs = plan.specs();
    if (specs.empty()) {
        error = "the workload generated no runs";
        return false;
    }
    serve::SubmitPayload payload = specs.front().payload();
    auto prepared = serve::prepareSubmitPayload(payload, maxHorizonMinutes());
    if (!prepared) {
        error = prepared.error().message;
        return false;
    }
    const core::SimulationConfig &config = prepared.value().config;
    const ecolo::power::DataCenterLayout layout(config.layout);
    Rows none;
    matrixMs = time(none, "thermal.matrix", 1, [&] {
                   matrix = std::make_shared<thermal::HeatDistributionMatrix>(
                       thermal::HeatDistributionMatrix::analyticDefault(
                           layout, config.matrixParams,
                           config.matrixHorizonMinutes));
               }) / 1e3;
    factorizeMs = time(none, "thermal.factorize", 1, [&] {
                      factors =
                          std::make_shared<thermal::TemporalFactorization>(
                              thermal::TemporalFactorization::compute(
                                  *matrix, config.factorization));
                  }) / 1e3;
    cost("thermal.matrix_ms", matrixMs);
    cost("thermal.factorize_ms", factorizeMs);

    warm = std::make_shared<core::SetupCache>();
    core::SimulationConfig warmConfig = config;
    warmConfig.setupCache = warm;
    auto policy = core::tryMakePolicyByName(warmConfig, payload.policy,
                                            payload.param);
    if (!policy) {
        error = policy.error().message;
        return false;
    }
    core::Simulation fill(warmConfig, policy.take());
    return true;
}

void
Replay::State::prefill(const DriveResult &drive,
                       const std::set<std::size_t> &skip)
{
    // Each worker's cache holds what it answered live, in answer order,
    // except the runs a sampled request must miss on.
    std::map<std::size_t, std::uint64_t> keys;
    for (const CallRecord &rec : drive.calls) {
        for (std::size_t i = 0; i < rec.runs.size(); ++i) {
            const RunOutcome &o = rec.runs[i];
            auto report = drive.reports.find(o.id);
            if (!o.ok || skip.count(o.id) || report == drive.reports.end())
                continue;
            const auto w = std::find(labels.begin(), labels.end(), o.worker);
            if (w == labels.end())
                continue;
            auto key = keys.find(o.id);
            if (key == keys.end())
                key = keys.emplace(o.id, placement.keyHash(rec.call.runs[i]))
                          .first;
            caches[w - labels.begin()]->insert(serve::CacheKey{key->second},
                                               report->second);
        }
    }
}

double
Replay::State::rpcRoundTrip(const std::string &submit,
                            const std::string &report, std::string &error)
{
    // The gateway-to-worker conversation shape: connect, a handler thread
    // per connection, SUBMIT in, ACCEPTED + RESULT out.
    const double start = nowUs();
    auto client = util::connectLoopback(rpcListener.port());
    auto accepted = rpcListener.acceptFor(5000);
    if (!client || !accepted || !accepted.value().has_value()) {
        error = "loopback RPC connect failed";
        return 0.0;
    }
    util::TcpConnection server = std::move(*accepted.value());
    std::thread handler([&server, &report] {
        auto frame = serve::readFrame(server);
        if (!frame)
            return;
        (void)serve::writeFrame(
            server, serve::MessageType::Accepted, 1,
            serve::encodeAccepted(serve::AcceptedPayload{false, 0}));
        (void)serve::writeFrame(
            server, serve::MessageType::ResultReport, 1,
            serve::encodeResult(serve::ResultPayload{report}));
    });
    (void)serve::writeFrame(client.value(), serve::MessageType::Submit, 0,
                            submit);
    auto a = serve::readFrame(client.value());
    auto r = serve::readFrame(client.value());
    handler.join();
    if (!a || !r)
        error = "loopback RPC exchange failed";
    return nowUs() - start;
}

double
Replay::State::httpExchange(const std::string &request,
                            const std::string &response, std::string &error)
{
    // The client-to-gateway socket traffic of one call, over loopback,
    // with the answer written by another thread.
    {
        std::lock_guard<std::mutex> lock(echoMutex);
        echoExpect = request.size();
        echoResponse = response;
    }
    std::string back(response.size(), '\0');
    const double start = nowUs();
    if (!httpClient.writeAll(request.data(), request.size()) ||
        !httpClient.readAll(back.data(), back.size()))
        error = "loopback HTTP exchange failed";
    return nowUs() - start;
}

bool
Replay::State::gatewayPrepare(Rows &rows, Run &run)
{
    // Gateway side: validate + content-address, then rank the workers.
    serve::SubmitPayload payload = run.spec.payload();
    bool ok = true;
    std::uint64_t hash = 0;
    cost("serve.prepare_us", time(rows, "serve.prepare", 1, [&] {
             auto prepared =
                 serve::prepareSubmitPayload(payload, maxHorizonMinutes());
             ok = prepared.ok();
             if (ok)
                 hash = prepared.value().key.hash;
         }));
    cost("gateway.cluster.rank_us",
         time(rows, "gateway.cluster.rank", 1, [&] {
             (void)placement.pool().rankForKey(hash);
         }));
    return ok;
}

bool
Replay::State::arrive(Rows &rows, Run &run, bool cold)
{
    const int tid = 2 + static_cast<int>(run.worker);
    run.payload = run.spec.payload();
    std::string submit;
    cost("serve.protocol.submit_us",
         time(rows, "serve.protocol.submit", tid, [&] {
             submit = serve::encodeSubmit(run.payload);
             const std::string frame = serve::encodeFrame(
                 serve::MessageType::Submit, 0, submit);
             unsigned char header[serve::kHeaderBytes];
             std::memcpy(header, frame.data(), serve::kHeaderBytes);
             (void)serve::decodeHeader(header);
             (void)serve::decodeSubmit(frame.substr(serve::kHeaderBytes));
         }));
    std::string error;
    const double rpcUs = rpcRoundTrip(
        submit, run.liveReport != nullptr ? *run.liveReport : "", error);
    if (!error.empty())
        return false;
    events.push_back(Event{"serve.rpc.roundtrip", nowUs() - rpcUs, rpcUs,
                           req, tid});
    addRow(rows, "serve.rpc.roundtrip", rpcUs / 1e3);
    cost("serve.rpc.roundtrip_us", rpcUs);

    bool ok = true;
    cost("serve.prepare_us", time(rows, "serve.prepare", tid, [&] {
             auto prepared =
                 serve::prepareSubmitPayload(run.payload, maxHorizonMinutes());
             ok = prepared.ok();
             if (ok) {
                 run.config = prepared.value().config;
                 run.key = prepared.value().key;
             }
         }));
    if (!ok)
        return false;
    serve::ResultCache &cache = *caches[run.worker];
    cost("serve.result_cache.lookup_us",
         time(rows, "serve.result_cache.lookup", tid, [&] {
             if (auto hit = cache.lookup(run.key)) {
                 run.hit = true;
                 run.report = std::move(*hit);
             }
         }));
    if (run.hit)
        return true;

    run.journalId = nextJournalId++;
    run.journalUs = time(rows, "serve.journal.append", tid, [&] {
        (void)journal->recordAdmit(run.journalId, run.payload);
    });

    std::shared_ptr<core::SetupCache> setup = warm;
    double coldMs = 0.0;
    if (cold) {
        // A scenario no worker has seen: traces and the scale solve are
        // built for it; the heat matrix and its fit are already shared.
        core::SetupCache::TraceSet traces;
        const double genUs = time(rows, "trace.generate", tid, [&] {
            traces = generateTraces(run.config);
        });
        ScaleInputs in = scaleInputs(run.config, traces);
        std::vector<ecolo::power::Tenant *> ptrs;
        for (auto &t : in.tenants)
            ptrs.push_back(&t);
        double factor = 0.0;
        const double scaleUs = time(rows, "power.scale", tid, [&] {
            factor = ecolo::power::computeMeanPowerScaleFactor(ptrs,
                                                               in.target);
        });
        cost("trace.generate_ms", genUs / 1e3);
        cost("power.scale_ms", scaleUs / 1e3);
        coldMs = (genUs + scaleUs) / 1e3 + matrixMs + factorizeMs;
        setup = std::make_shared<core::SetupCache>();
        const core::SimulationConfig &c = run.config;
        setup->matrix(core::SetupCache::matrixKey(c),
                      [&] { return *matrix; });
        setup->factorization(core::SetupCache::factorizationKey(c),
                             [&] { return *factors; });
        setup->traceSet(core::SetupCache::traceSetKey(c),
                        [&] { return traces; });
        setup->scaleFactor(core::SetupCache::scaleFactorKey(c),
                           [&] { return factor; });
    }
    run.config.setupCache = setup;
    const double setupUs = time(rows, "core.setup_warm", tid, [&] {
        auto policy = core::tryMakePolicyByName(
            run.config, run.payload.policy, run.payload.param);
        if (policy)
            run.sim = std::make_unique<core::Simulation>(run.config,
                                                         policy.take());
    });
    cost("core.setup_warm_ms", setupUs / 1e3);
    if (cold)
        cost("core.setup_cold_ms", coldMs + setupUs / 1e3);
    return run.sim != nullptr;
}

void
Replay::State::loopScalar(Rows &rows, Run &run)
{
    const double us = time(rows, "core.loop", 2 + static_cast<int>(run.worker),
                           [&] { run.sim->run(run.spec.horizonMinutes); });
    cost("core.loop_ns_per_slot",
         us * 1e3 / static_cast<double>(run.spec.horizonMinutes));
}

void
Replay::State::loopBatch(Rows &rows, std::vector<Run *> &batch)
{
    if (batch.size() == 1)
        return loopScalar(rows, *batch.front());
    core::LaneBatchRunner runner;
    for (Run *run : batch)
        runner.add(*run->sim, run->spec.horizonMinutes);
    const double us =
        time(rows, "core.lane_loop", 2 + static_cast<int>(batch[0]->worker),
             [&] { runner.runAll(); });
    cost("core.lane_loop_ns_per_slot",
         us * 1e3 /
             static_cast<double>(batch[0]->spec.horizonMinutes *
                                 static_cast<std::int64_t>(batch.size())));
}

void
Replay::State::conclude(Rows &rows, Run &run)
{
    const int tid = 2 + static_cast<int>(run.worker);
    if (!run.hit) {
        cost("core.report.render_us",
             time(rows, "core.report.render", tid, [&] {
                 run.report = render(run.config, *run.sim, run.payload);
             }));
        cost("serve.result_cache.insert_us",
             time(rows, "serve.result_cache.insert", tid, [&] {
                 caches[run.worker]->insert(run.key, run.report);
             }));
        run.journalUs += time(rows, "serve.journal.append", tid, [&] {
            (void)journal->recordOutcome(run.journalId,
                                         serve::JournalOutcome::Completed);
        });
        cost("serve.journal.append_us", run.journalUs);
        // Freed now, as the worker frees it: the next set-up reuses the
        // memory instead of faulting in fresh pages.
        run.sim.reset();
    }
    if (run.liveReport != nullptr && run.report != *run.liveReport &&
        mismatches.size() < 5)
        mismatches.push_back(describeRun(run.spec) + ": replay " +
                             firstDifference(*run.liveReport, run.report));
    cost("serve.protocol.result_us",
         time(rows, "serve.protocol.result", tid, [&] {
             const std::string frame = serve::encodeFrame(
                 serve::MessageType::ResultReport, 1,
                 serve::encodeResult(serve::ResultPayload{run.report}));
             unsigned char header[serve::kHeaderBytes];
             std::memcpy(header, frame.data(), serve::kHeaderBytes);
             (void)serve::decodeHeader(header);
             (void)serve::decodeResult(frame.substr(serve::kHeaderBytes));
         }));
    cost("gateway.json.quote_us", time(rows, "gateway.json.quote", 1, [&] {
             (void)gw::jsonQuote(run.report);
         }));
}

void
Replay::State::kernelProbes()
{
    // Kernel costs per slot, on the artifacts the runs above used.
    const std::vector<RunSpec> specs = plan.specs();
    serve::SubmitPayload payload = specs.front().payload();
    auto prepared = serve::prepareSubmitPayload(payload, maxHorizonMinutes());
    if (!prepared)
        return;
    const core::SimulationConfig &config = prepared.value().config;
    constexpr int kSteps = 20000;
    Rows none;
    {
        thermal::ThermalEnvironment env(*matrix, config.cooling, 15.0,
                                        config.thermalMode,
                                        config.factorization, factors);
        const std::vector<ecolo::Kilowatts> heat(config.numServers(),
                                                 ecolo::Kilowatts(0.15));
        const double us = time(none, "thermal.step", 1, [&] {
            for (int i = 0; i < kSteps; ++i)
                env.stepMinute(heat);
        });
        cost("thermal.step_ns_per_slot", us * 1e3 / kSteps);
    }
    {
        ecolo::sidechannel::VoltageSideChannel channel(
            config.sideChannel, ecolo::Rng(config.seed ^ 0x5e1dc4a2ULL));
        std::vector<double> scratch;
        const double us = time(none, "sidechannel.estimate", 1, [&] {
            for (int i = 0; i < kSteps; ++i)
                (void)channel.estimateAveraged(
                    ecolo::Kilowatts(5.0),
                    config.sideChannel.samplesPerEstimate, scratch);
        });
        cost("sidechannel.estimate_ns_per_slot", us * 1e3 / kSteps);
    }
}

Replay::Replay(const Plan &plan, const Placement &placement,
               const std::vector<std::string> &labels, std::size_t lanes,
               std::string dir)
    : state_(std::make_unique<State>(plan, placement, labels,
                                     std::clamp<std::size_t>(lanes, 1, 8),
                                     std::move(dir), costs_, mismatches_))
{}

Replay::~Replay() = default;

bool
Replay::State::replayCall(const DriveResult &drive, std::size_t c,
                          bool cold, Budget &out, std::string &error)
{
    const CallRecord &rec = drive.calls[c];
    req = c;
    const double reqStart = nowUs();
    Rows rows;
    const std::string body = rec.call.body();
    const std::string wire =
        HttpConnection::encode("POST", rec.call.path(), body);
    cost("gateway.http.parse_us", time(rows, "gateway.http.parse", 1, [&] {
             gw::HttpRequestParser parser;
             parser.feed(wire.data(), wire.size());
         }));
    cost("gateway.json.parse_us", time(rows, "gateway.json.parse", 1, [&] {
             (void)gw::JsonValue::parse(body);
         }));

    std::vector<Run> runs(rec.call.runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        Run &run = runs[i];
        run.spec = rec.call.runs[i];
        const RunOutcome &o = rec.runs[i];
        const auto w = std::find(labels.begin(), labels.end(), o.worker);
        run.worker = w == labels.end()
                         ? 0
                         : static_cast<std::size_t>(w - labels.begin());
        auto live = drive.reports.find(o.id);
        run.liveReport = live == drive.reports.end() ? nullptr : &live->second;
        if (!gatewayPrepare(rows, run)) {
            error = describeRun(run.spec) + ": gateway validation failed";
            return false;
        }
    }

    // Worker side: each worker serves its runs in order; batch-lane runs
    // share a lane pass at the observed occupancy. The call waits for
    // the slower worker, so only that one's rows count.
    std::vector<Rows> workerRows(labels.size());
    for (std::size_t w = 0; w < labels.size(); ++w) {
        std::vector<Run *> pending;
        const auto flush = [&] {
            if (pending.empty())
                return;
            loopBatch(workerRows[w], pending);
            for (Run *run : pending)
                conclude(workerRows[w], *run);
            pending.clear();
        };
        for (Run &run : runs) {
            if (run.worker != w)
                continue;
            if (!arrive(workerRows[w], run, cold)) {
                error = describeRun(run.spec) + ": replay set-up failed";
                return false;
            }
            if (run.hit) {
                conclude(workerRows[w], run);
                continue;
            }
            pending.push_back(&run);
            if (!run.spec.batch || pending.size() >= lanes)
                flush();
        }
        flush();
    }
    const auto critical =
        std::max_element(workerRows.begin(), workerRows.end(),
                         [](const Rows &a, const Rows &b) {
                             return total(a) < total(b);
                         });
    for (const auto &[layer, ms] : *critical)
        addRow(rows, layer, ms);

    std::string envelopes;
    for (const Run &run : runs) {
        if (!envelopes.empty())
            envelopes += ',';
        envelopes += gw::jsonQuote(run.report);
    }
    std::string response;
    cost("gateway.http.respond_us",
         time(rows, "gateway.http.respond", 1, [&] {
             response = gw::buildHttpResponse(200, "application/json",
                                              "[" + envelopes + "]", true);
         }));
    const double ioUs = httpExchange(wire, response, error);
    events.push_back(Event{"gateway.http.io", nowUs() - ioUs, ioUs, c, 1});
    addRow(rows, "gateway.http.io", ioUs / 1e3);
    cost("gateway.http.io_us", ioUs);
    if (!error.empty())
        return false;
    events.push_back(Event{"request " + std::to_string(c), reqStart,
                           nowUs() - reqStart, c, 0});

    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    out.call = c;
    out.latencyMs = rec.latencyMs;
    out.rows = rows;
    out.unattributedMs = rec.latencyMs - total(rows);
    double group = 0.0;
    for (const auto &[layer, ms] : rows) {
        if (predictedGroup(plan.name()).layers.count(layer))
            group += ms;
    }
    out.dominantShare = rec.latencyMs > 0.0 ? group / rec.latencyMs : 0.0;
    return true;
}

bool
Replay::State::probeLayers(bool cold, std::string &error)
{
    // Layers the sampled calls did not reach still get a per-call cost:
    // one synthetic lane batch and one scalar run of the warm scenario.
    const RunSpec base = plan.specs().front();
    const std::size_t probeLanes = std::max<std::size_t>(2, lanes);
    std::vector<Run> probe(probeLanes + 1);
    std::vector<Run *> batch;
    req = SIZE_MAX;
    Rows none;
    for (std::size_t i = 0; i < probe.size(); ++i) {
        Run &run = probe[i];
        run.spec = base;
        run.spec.horizonMinutes = ecolo::kMinutesPerDay;
        run.spec.param = 3.0 + 0.01 * static_cast<double>(i);
        run.spec.policy = "myopic";
        if (!arrive(none, run, false)) {
            error = "probe run failed to set up";
            return false;
        }
        if (i < probeLanes)
            batch.push_back(&run);
    }
    loopBatch(none, batch);
    loopScalar(none, probe.back());
    for (Run &run : probe)
        conclude(none, run);
    if (!cold) {
        // A full cold set-up of the warm scenario, as a fresh worker
        // pays it.
        Run run;
        run.spec = base;
        run.spec.horizonMinutes = 60;
        run.spec.param = 2.0;
        run.spec.policy = "myopic";
        if (!arrive(none, run, true)) {
            error = "cold probe failed to set up";
            return false;
        }
    }
    kernelProbes();
    return true;
}

bool
Replay::run(const DriveResult &drive, std::size_t samples,
            std::uint64_t seed, std::string &error)
{
    State &s = *state_;
    const bool cold = s.plan.name() == "cold_interactive";

    // A seeded sample of the answered calls, replayed in send order.
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < drive.calls.size(); ++i) {
        if (drive.calls[i].ok)
            pool.push_back(i);
    }
    seededShuffle(pool, seed);
    pool.resize(std::min(samples, pool.size()));
    std::sort(pool.begin(), pool.end());

    if (!s.init(error))
        return false;
    std::set<std::size_t> misses;
    for (std::size_t c : pool) {
        for (const RunOutcome &o : drive.calls[c].runs) {
            if (!o.cacheHit)
                misses.insert(o.id);
        }
    }
    s.prefill(drive, misses);

    for (std::size_t c : pool) {
        Budget b;
        if (!s.replayCall(drive, c, cold, b, error))
            return false;
        budgets_.push_back(std::move(b));
    }
    return s.probeLayers(cold, error);
}

const Budget *
Replay::medianBudget() const
{
    if (budgets_.empty())
        return nullptr;
    std::vector<const Budget *> order;
    for (const Budget &b : budgets_)
        order.push_back(&b);
    std::sort(order.begin(), order.end(), [](const Budget *a, const Budget *b) {
        return a->latencyMs < b->latencyMs;
    });
    return order[order.size() / 2];
}

std::string
Replay::budgetTable(const DriveResult &drive) const
{
    std::ostringstream os;
    os << std::fixed;
    const Budget *median = medianBudget();
    if (median == nullptr)
        return "no sampled requests\n";
    const Budget &p50 = *median;
    const auto table = [&](const Rows &rows, double unattributed,
                           double latency) {
        for (const auto &[layer, ms] : rows)
            os << "  " << std::left << std::setw(28) << layer << std::right
               << std::setw(12) << std::setprecision(3) << ms
               << std::setw(8) << std::setprecision(1)
               << (latency > 0 ? 100.0 * ms / latency : 0.0) << "%\n";
        os << "  " << std::left << std::setw(28) << "unattributed"
           << std::right << std::setw(12) << std::setprecision(3)
           << unattributed << std::setw(8) << std::setprecision(1)
           << (latency > 0 ? 100.0 * unattributed / latency : 0.0) << "%\n";
        os << "  " << std::left << std::setw(28) << "= measured latency"
           << std::right << std::setw(12) << std::setprecision(3) << latency
           << "\n";
    };
    const CallRecord &rec = drive.calls[p50.call];
    os << "budget " << state_->plan.name() << ": p50 of "
       << budgets_.size() << " sampled requests (call " << p50.call << ", "
       << rec.call.runs.size() << " run(s), ms)\n";
    table(p50.rows, p50.unattributedMs, p50.latencyMs);
    os << "  predicted dominant layer group ("
       << predictedGroup(state_->plan.name()).name
       << "): " << std::setprecision(1) << 100.0 * p50.dominantShare
       << "% of the p50 request\n";

    Rows mean;
    double meanLatency = 0.0;
    double meanUnattributed = 0.0;
    const double n = static_cast<double>(budgets_.size());
    for (const Budget &b : budgets_) {
        meanLatency += b.latencyMs / n;
        meanUnattributed += b.unattributedMs / n;
        for (const auto &[layer, ms] : b.rows)
            addRow(mean, layer, ms / n);
    }
    std::sort(mean.begin(), mean.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    os << "budget " << state_->plan.name() << ": mean over the "
       << budgets_.size() << " sampled requests (ms)\n";
    table(mean, meanUnattributed, meanLatency);
    return os.str();
}

bool
Replay::writeTrace(const std::string &path, const DriveResult &drive) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
          "{\"name\":\"load generator: one span per request\"}},\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
          "{\"name\":\"in-process replay: one span per layer call\"}},\n";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
          "\"args\":{\"name\":\"gateway layers\"}},\n";
    for (std::size_t w = 0; w < state_->labels.size(); ++w)
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":"
           << 2 + w << ",\"args\":{\"name\":\"worker " << w << " ("
           << state_->labels[w] << ") layers\"}},\n";
    // Client spans: all of them up to a cap that keeps the file small.
    constexpr std::size_t kMaxClientSpans = 20000;
    std::set<std::size_t> sampled;
    for (const Budget &b : budgets_)
        sampled.insert(b.call);
    for (std::size_t i = 0; i < drive.calls.size(); ++i) {
        if (i >= kMaxClientSpans && !sampled.count(i))
            continue;
        const CallRecord &rec = drive.calls[i];
        const double start =
            (rec.call.due >= 0.0 ? rec.call.due : rec.sent) * 1e6;
        os << "{\"name\":\"" << rec.call.path() << "\",\"cat\":\"client\","
           << "\"ph\":\"X\",\"pid\":1,\"tid\":" << rec.conn
           << ",\"ts\":" << start << ",\"dur\":" << rec.latencyMs * 1e3
           << ",\"args\":{\"req\":" << i << ",\"runs\":"
           << rec.call.runs.size() << ",\"ok\":"
           << (rec.ok ? "true" : "false") << "}},\n";
    }
    for (const State::Event &e : state_->events) {
        os << "{\"name\":\"" << e.name << "\",\"cat\":\"replay\","
           << "\"ph\":\"X\",\"pid\":2,\"tid\":" << e.tid << ",\"ts\":"
           << e.ts << ",\"dur\":" << e.dur << ",\"args\":{\"req\":";
        if (e.req == SIZE_MAX)
            os << "\"probe\"";
        else
            os << e.req;
        os << "}},\n";
    }
    os << "{\"name\":\"end\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0,"
          "\"s\":\"g\"}\n]}\n";
    return static_cast<bool>(os);
}

} // namespace e2e
