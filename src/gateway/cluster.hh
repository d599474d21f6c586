/**
 * @file
 * The sharded worker pool behind the gateway: N edgetherm-serve
 * processes addressed as host:port, consistent hashing from the
 * content-addressed cache key to a preferred worker, and typed failover
 * down the preference list when a worker's transport dies.
 *
 * Placement is rendezvous (highest-random-weight) hashing: every worker
 * is scored by mixing fnv1a64(label) with the key hash through the
 * SplitMix64 finalizer, and the descending score order
 * *is* both the shard assignment (first entry) and the failover order
 * (the rest). Adding or removing one worker therefore remaps only the
 * keys that scored highest on it -- the property that keeps warm worker
 * caches warm through membership churn -- and every gateway computes
 * the same order with no coordination.
 *
 * Health is observational: a worker is marked unhealthy the moment a
 * forward to it fails at the transport layer, which re-ranks it to the
 * back of every subsequent preference order (rendezvous order preserved
 * within the healthy and unhealthy groups). A background probe thread
 * re-checks unhealthy workers with a STATS round-trip and restores them
 * on success, so a restarted worker rejoins without operator action.
 * All of it is counted per worker in the pool's own telemetry registry
 * (gateway.worker.N.*, gateway.workers.*), which the gateway's stats
 * document dumps as is.
 */

#ifndef ECOLO_GATEWAY_CLUSTER_HH
#define ECOLO_GATEWAY_CLUSTER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "telemetry/stats.hh"
#include "util/result.hh"

namespace ecolo::gateway {

/** One worker endpoint. */
struct WorkerAddress
{
    std::string host;
    std::uint16_t port = 0;

    std::string label() const
    { return host + ":" + std::to_string(port); }
};

/**
 * Parse "host:port,host:port,..." (the --workers syntax). IPv6
 * literals use brackets: "[::1]:7471". Empty entries, missing or
 * out-of-range ports, and an empty list are ValidationErrors.
 */
util::Result<std::vector<WorkerAddress>>
parseWorkerList(const std::string &text);

class WorkerPool
{
  public:
    struct Options
    {
        /** Per-worker submit retry (transport + RETRY_AFTER). */
        serve::RetryPolicy retry;
        /** Receive timeout on worker conversations; <= 0 = none. */
        int receiveTimeoutMs = 30000;
        /** Unhealthy-worker re-probe cadence; <= 0 disables probing. */
        int probeIntervalMs = 500;
    };

    WorkerPool(std::vector<WorkerAddress> addresses, Options options);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Launch the health-probe thread (no-op when disabled). */
    void start();
    /** Stop and join the probe thread; idempotent. */
    void stop();

    std::size_t size() const { return workers_.size(); }
    const WorkerAddress &address(std::size_t worker) const
    { return workers_[worker].address; }
    bool healthy(std::size_t worker) const
    {
        return workers_[worker].healthy.load(
            std::memory_order_acquire);
    }
    std::size_t healthyCount() const;

    /**
     * Worker indices in preference order for `key_hash`: rendezvous
     * score descending, healthy workers before unhealthy ones.
     */
    std::vector<std::size_t> rankForKey(std::uint64_t key_hash) const;

    /** The raw rendezvous score (exposed for the property tests). */
    static std::uint64_t rendezvousScore(const WorkerAddress &address,
                                         std::uint64_t key_hash);

    /** `on_accepted` with the answering worker's index attached. */
    using AcceptedCallback = std::function<void(
        std::size_t worker, std::uint64_t remote_id,
        const serve::AcceptedPayload &)>;

    struct ForwardOutcome
    {
        serve::SubmitOutcome outcome;
        std::size_t worker = 0;    //!< index that answered
        std::size_t failovers = 0; //!< workers skipped on dead transport
        std::size_t attempts = 0;  //!< submit attempts across workers
    };

    /**
     * Forward one run to the cluster: try workers in rankForKey order,
     * submitWithRetry per worker, fail over to the next replica when a
     * worker's transport is exhausted (marking it unhealthy). The
     * Result is an error only when *every* worker is unreachable; a
     * worker that answers -- even with backpressure or a typed error --
     * ends the walk, because the shard owner's answer is authoritative.
     */
    util::Result<ForwardOutcome>
    submit(const serve::RequestSpec &spec, std::uint64_t key_hash,
           const AcceptedCallback &on_accepted = nullptr,
           const serve::ServeClient::StatusCallback &on_status =
               nullptr);

    /** Cancel a run previously accepted by `worker`. */
    util::Result<bool> cancel(std::size_t worker,
                              std::uint64_t remote_id);

    /** Fetch one worker's metrics document. */
    util::Result<std::string> stats(std::size_t worker);

    /**
     * The pool's stats: per worker N, counters gateway.worker.N.
     * {forwarded (submits attempted there), answered (conversations
     * that resolved), cache_hits, retry_later (terminal backpressure),
     * transport_errors, failovers_from (walks that skipped past it),
     * probes, probe_failures} and the 0/1 gauge gateway.worker.N.healthy;
     * pool-wide gauges gateway.workers.{total,healthy}.
     */
    const telemetry::Registry &stats() const { return stats_; }

    /**
     * Set the health bit (routing state) and its gauges. Every health
     * change goes through here: tests, forwards, and the probe loop.
     */
    void setHealthy(std::size_t worker, bool healthy);

  private:
    struct Worker
    {
        WorkerAddress address;
        telemetry::Registry &stats; //!< the pool's
        std::string prefix;         //!< "gateway.worker.<index>."
        std::unique_ptr<serve::ServeClient> client =
            std::make_unique<serve::ServeClient>(address.host,
                                                 address.port);
        std::atomic<bool> healthy{true};
        telemetry::Counter &forwarded = stats.counter(prefix + "forwarded");
        telemetry::Counter &answered = stats.counter(prefix + "answered");
        telemetry::Counter &cacheHits = stats.counter(prefix + "cache_hits");
        telemetry::Counter &retryLater =
            stats.counter(prefix + "retry_later");
        telemetry::Counter &transportErrors =
            stats.counter(prefix + "transport_errors");
        telemetry::Counter &failoversFrom =
            stats.counter(prefix + "failovers_from");
        telemetry::Counter &probes = stats.counter(prefix + "probes");
        telemetry::Counter &probeFailures =
            stats.counter(prefix + "probe_failures");
        telemetry::Gauge &healthyNow = stats.gauge(prefix + "healthy");
    };

    void probeLoop();

    const Options options_;
    telemetry::Registry stats_;
    telemetry::Gauge &workersHealthy_ =
        stats_.gauge("gateway.workers.healthy");
    std::deque<Worker> workers_; //!< deque: Worker holds atomics

    std::mutex probeMutex_;
    std::condition_variable probeCv_;
    bool stopping_ = false;
    std::thread probeThread_;
};

} // namespace ecolo::gateway

#endif // ECOLO_GATEWAY_CLUSTER_HH
