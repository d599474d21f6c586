/**
 * @file
 * edgetherm-serve: the long-running simulation server.
 *
 * Wires the edgetherm-rpc-v2 protocol, the priority scheduler, and the
 * content-addressed result cache into one drainable service:
 *
 * - an acceptor thread polls the loopback listener and hands each
 *   connection to a short-lived handler thread;
 * - SUBMIT handlers parse + validate the scenario up front (errors are
 *   answered without touching the scheduler), consult the cache
 *   (hit -> ACCEPTED{cacheHit} + the cached RESULT bytes immediately),
 *   and otherwise admit the run, handing the connection to the job so
 *   STATUS/RESULT frames stream from the worker that simulates;
 * - drain (SIGTERM or a SHUTDOWN frame) stops admission, lets accepted
 *   work finish -- or, when a drain spool directory is configured,
 *   cancels in-flight runs at the next simulated minute and checkpoints
 *   them via the PR-2 checkpoint layer, answering DRAINED with the
 *   checkpoint path -- then joins every thread.
 *
 * Serving statistics live in per-instance telemetry registries, always
 * on (also with telemetry compiled out): the result cache's
 * serve.cache.*, the scheduler's serve.requests.*, serve.dispatch.*,
 * serve.queue.* and queue-wait tails, and the server's
 * own serve.connections.*, serve.protocol.*, serve.journal.*,
 * serve.setup_cache.* and per-lane serve.latency.* tails. metricsJson()
 * dumps them, followed by the process registry's engine stats, as one
 * edgetherm-metrics-v1 document; two servers in one process never see
 * each other's counts.
 */

#ifndef ECOLO_SERVE_SERVER_HH
#define ECOLO_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "core/setup_cache.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/scheduler.hh"
#include "telemetry/latency.hh"
#include "util/result.hh"
#include "util/socket.hh"

namespace ecolo::core {
class Simulation;
}

namespace ecolo::serve {

/**
 * A SUBMIT payload validated and canonicalized into a runnable form:
 * the applied simulation config, the content-addressed cache key, and
 * the scheduling lane. Shared by the in-process server (admission and
 * journal replay) and the HTTP gateway, whose coordinator needs the
 * same validation and the same cache key to shard requests onto the
 * worker that will cache them.
 */
struct PreparedSubmit
{
    core::SimulationConfig config;
    CacheKey key;
    Lane lane = Lane::Interactive;
};

/**
 * Validate + canonicalize a SUBMIT payload: policy/horizon checks,
 * scenario parse/apply, default param fill-in, cache key derivation.
 * Mutates `request` (clientId default, param default) exactly like the
 * server's own admission path, so a forwarded payload hashes
 * identically on the worker.
 */
util::Result<PreparedSubmit>
prepareSubmitPayload(SubmitPayload &request,
                     std::int64_t max_horizon_minutes);

struct ServerOptions
{
    std::uint16_t port = 0;        //!< 0 = ephemeral; see port()
    std::size_t numWorkers = 2;    //!< concurrent simulations
    std::size_t maxQueued = 32;    //!< admission bound (both lanes)
    std::size_t batchBoostEvery = 4;
    std::size_t cacheMaxBytes = 32u << 20;
    std::size_t cacheMaxEntries = 1024;
    /** RETRY_AFTER hint handed to backpressured clients. */
    std::uint32_t retryAfterMs = 250;
    /** STATUS streaming granularity (simulated minutes). */
    std::int64_t statusEveryMinutes = 10080;
    /** Max accepted request horizon. */
    std::int64_t maxHorizonMinutes = 366L * 24 * 60 * 100;
    /** Kill idle/stuck request reads after this long. */
    int receiveTimeoutMs = 30000;
    /**
     * When non-empty, drain checkpoints in-flight runs into this
     * directory (request-<id>.ckpt) instead of running them to their
     * horizon.
     */
    std::string drainCheckpointDir;
    /**
     * When non-empty, admitted requests are journaled (write-ahead,
     * group-committed with fdatasync before ACCEPTED) into
     * `<journalDir>/requests.wal`, and a restarted server replays
     * admitted-but-unfinished requests so their results land in the
     * cache byte-identically.
     */
    std::string journalDir;
    /** Replaces the journal's fdatasync (JournalOptions::sync). */
    std::function<int(int fd)> journalSync;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, then start the scheduler and acceptor threads. */
    util::Result<void> start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Begin the drain sequence; idempotent, returns immediately. */
    void requestDrain();

    /** True once a drain was requested (signal or SHUTDOWN frame). */
    bool drainRequested() const
    { return draining_.load(std::memory_order_acquire); }

    /** True from start() until the drain completed. */
    bool running() const
    { return running_.load(std::memory_order_acquire); }

    /** Block until the drain completed and every thread was joined. */
    void waitUntilStopped();

    /** Introspection for tests and the stats endpoint. */
    core::SetupCache::Counters setupCacheCounters() const
    { return setupCache_->counters(); }

    /**
     * A stat from any of this server's registries, or nullptr. The
     * serve.setup_cache.* sums are refreshed by metricsJson() only.
     */
    const telemetry::StatBase *find(const std::string &name) const;

    /**
     * The edgetherm-metrics-v1 JSON document: this server's registries
     * followed by the process registry.
     */
    std::string metricsJson() const;

  private:
    void acceptLoop();
    void handleConnection(std::shared_ptr<util::TcpConnection> conn);
    void handleSubmit(std::shared_ptr<util::TcpConnection> conn,
                      const Frame &frame);
    /** prepareSubmitPayload with this server's horizon bound. */
    util::Result<PreparedSubmit> prepareRequest(SubmitPayload &request);
    /**
     * Queue one admitted run (a new SUBMIT or a journal replay). `conn`
     * is null for a replay: all frame writes are skipped, but the cache
     * fill, journal outcome, and latency accounting still happen. The
     * run waits on `accepted_sent` (when valid) before streaming.
     */
    Scheduler::SubmitResult submitRun(
        std::shared_ptr<util::TcpConnection> conn, std::uint64_t id,
        const SubmitPayload &request, PreparedSubmit prepared,
        std::optional<std::chrono::steady_clock::time_point> deadline,
        std::chrono::steady_clock::time_point received,
        std::shared_future<void> accepted_sent);
    /**
     * Run one admitted simulation: the scheduler's executor, which
     * every admitted run goes through. Streams STATUS frames, then
     * answers, journals and caches a report byte-identical to a direct
     * Simulation::run.
     */
    void runSimulation(Scheduler::Item &item);
    /**
     * Policy construction + Simulation + cooperative cancel check: the
     * prologue of every run. Null after an error (already answered and
     * journaled).
     */
    std::unique_ptr<core::Simulation> startSimulation(
        const std::shared_ptr<util::TcpConnection> &conn,
        std::uint64_t request_id, const SubmitPayload &request,
        const core::SimulationConfig &config, const CancelToken &token,
        std::optional<std::chrono::steady_clock::time_point> deadline,
        std::chrono::steady_clock::time_point received);
    /**
     * Terminal handling once a run stopped simulating (cancelled,
     * drained, deadline, or horizon reached): frames, checkpoint,
     * cache fill, journal outcome, latency.
     */
    void concludeSimulation(
        const std::shared_ptr<util::TcpConnection> &conn,
        std::uint64_t request_id, const SubmitPayload &request,
        const core::SimulationConfig &config, const CacheKey &key,
        const CancelToken &token, core::Simulation &sim,
        std::chrono::steady_clock::time_point received);
    void replayRecovered();
    void recordLatency(Lane lane,
                       std::chrono::steady_clock::time_point received);
    /** A journal-recovered run reached its outcome. */
    void recordReplayed();
    void recordJournalOutcome(std::uint64_t request_id,
                              JournalOutcome outcome);
    void reapHandlerThreadsLocked();
    /** Cache, scheduler, then the server's own registry. */
    std::vector<const telemetry::Registry *> registries() const;

    const ServerOptions options_;
    util::TcpListener listener_;
    std::uint16_t port_ = 0;

    Scheduler scheduler_;
    ResultCache cache_;
    /** Process-wide setup artifact cache, shared by every run. */
    const std::shared_ptr<core::SetupCache> setupCache_ =
        std::make_shared<core::SetupCache>();

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> nextRequestId_{1};

    telemetry::Registry stats_;
    telemetry::Counter &connectionsAccepted_ =
        stats_.counter("serve.connections.accepted");
    telemetry::Counter &protocolErrors_ =
        stats_.counter("serve.protocol.errors");
    telemetry::Counter &deadlineExceeded_ =
        stats_.counter("serve.requests.deadline_exceeded");
    telemetry::Counter &journalRecovered_ =
        stats_.counter("serve.journal.recovered");
    telemetry::Counter &journalReplayed_ =
        stats_.counter("serve.journal.replayed");
    telemetry::Gauge &journalPending_ = stats_.gauge("serve.journal.pending");
    telemetry::Counter &journalAppendFailures_ =
        stats_.counter("serve.journal.append_failures");
    /** Records written and syncs issued; their ratio is the group size. */
    telemetry::Counter &journalRecords_ =
        stats_.counter("serve.journal.records");
    telemetry::Counter &journalSyncs_ =
        stats_.counter("serve.journal.syncs");
    /** core::SetupCache sums, refreshed by metricsJson(). */
    telemetry::Gauge &setupHits_ = stats_.gauge("serve.setup_cache.hits");
    telemetry::Gauge &setupMisses_ =
        stats_.gauge("serve.setup_cache.misses");
    telemetry::Gauge &setupTraceHits_ =
        stats_.gauge("serve.setup_cache.trace_hits");
    telemetry::Gauge &setupFactorizationHits_ =
        stats_.gauge("serve.setup_cache.factorization_hits");
    /** Submit receipt to terminal frame, indexed by Lane. */
    telemetry::TailLatency *const latency_[2] = {
        &stats_.tail("serve.latency.interactive", "_us"),
        &stats_.tail("serve.latency.batch", "_us")};
    /** Declared after stats_: it bumps journalRecords_/journalSyncs_. */
    std::unique_ptr<RequestJournal> journal_;

    std::thread schedulerThread_;
    std::thread acceptThread_;

    /** Short-lived per-connection handlers; reaped as they finish. */
    struct Handler
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::mutex handlersMutex_;
    std::vector<Handler> handlers_;

    std::mutex stopMutex_; //!< serializes waitUntilStopped joins
    bool stopped_ = false;
};

} // namespace ecolo::serve

#endif // ECOLO_SERVE_SERVER_HH
