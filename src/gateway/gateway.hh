/**
 * @file
 * The HTTP/JSON gateway: an async epoll front end that translates REST
 * calls into edgetherm-rpc-v2 conversations against a sharded cluster
 * of edgetherm-serve workers.
 *
 * One event-loop thread owns every client socket (accept, incremental
 * HTTP parse, response writes, keep-alive, idle reaping); a small pool
 * of forwarder threads performs the *blocking* worker RPC so a
 * year-long campaign on a worker never stalls the loop. The two sides
 * meet at a completion queue drained through an eventfd: forwarders
 * push response bytes tagged with a connection id, the loop stitches
 * them into the right socket -- or drops them when the client has
 * meanwhile gone away.
 *
 * Routes (all JSON; see docs/gateway.md for schemas):
 *
 *   POST   /v1/runs       submit a run; sync (default), chunked
 *                         streaming ("stream": true, NDJSON progress
 *                         events), or fire-and-poll ("async": true,
 *                         202 + id)
 *   GET    /v1/runs       recent run registry
 *   GET    /v1/runs/{id}  one run's state / terminal envelope
 *   DELETE /v1/runs/{id}  cancel (forwards CANCEL to the owning worker)
 *   POST   /v1/fleet      scatter/gather a batch of runs
 *   GET    /v1/stats      gateway.* metrics document
 *   GET    /v1/healthz    liveness + worker health summary
 *
 * Requests are validated with the *server's own* prepareSubmitPayload,
 * so the content-addressed cache key the gateway shards on is exactly
 * the key the chosen worker will cache under. Typed util::Result
 * errors map onto HTTP statuses (ValidationError/ParseError -> 400,
 * RETRY_AFTER backpressure -> 429 + Retry-After, DEADLINE_EXCEEDED ->
 * 504, draining worker -> 503, all replicas unreachable -> 502);
 * every failure is a JSON error body, never silence.
 *
 * Stats live in the gateway's own telemetry registry (gateway.http.*,
 * gateway.connections.*, gateway.runs.*, the per-route
 * gateway.latency.* tails, and the gateway.worker.N.serve.* /
 * gateway.cluster.* mirrors of the workers' documents) and in the
 * WorkerPool's (gateway.worker.N.*, gateway.workers.*). Each value is
 * updated by the thread that owns it -- gateway.connections.active by
 * the event loop -- so the stats document renders on a forwarder
 * thread without touching loop state.
 */

#ifndef ECOLO_GATEWAY_GATEWAY_HH
#define ECOLO_GATEWAY_GATEWAY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gateway/cluster.hh"
#include "gateway/http.hh"
#include "gateway/json.hh"
#include "serve/client.hh"
#include "telemetry/latency.hh"
#include "util/result.hh"
#include "util/socket.hh"

namespace ecolo::gateway {

struct GatewayOptions
{
    std::uint16_t port = 0; //!< 0 = ephemeral; see Gateway::port()
    std::vector<WorkerAddress> workers;
    /** Concurrent worker RPCs; 0 = four per worker. */
    std::size_t numForwarders = 0;
    std::size_t maxConnections = 128;
    int idleTimeoutMs = 30000;       //!< reap idle keep-alive clients
    /** Same bound the workers enforce; rejected here with a 400. */
    std::int64_t maxHorizonMinutes = 366L * 24 * 60 * 100;
    std::size_t maxRetainedRuns = 256; //!< registry retention
    std::size_t maxFleetRuns = 64;     //!< entries per /v1/fleet call
    HttpRequestParser::Limits http;
    WorkerPool::Options pool;
};

class Gateway
{
  public:
    explicit Gateway(GatewayOptions options);
    ~Gateway();

    Gateway(const Gateway &) = delete;
    Gateway &operator=(const Gateway &) = delete;

    /** Bind, start the worker pool, forwarders, and the event loop. */
    util::Result<void> start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Begin the drain sequence; idempotent, returns immediately. */
    void requestDrain();

    bool drainRequested() const
    { return draining_.load(std::memory_order_acquire); }
    bool running() const
    { return running_.load(std::memory_order_acquire); }

    /** Block until the drain completed and every thread was joined. */
    void waitUntilStopped();

    /**
     * The edgetherm-metrics-v1 document: the gateway's and the pool's
     * registries, then the process registry.
     */
    std::string metricsJson() const;

    /** A stat from the gateway's or the pool's registry, or nullptr. */
    const telemetry::StatBase *find(const std::string &name) const;

    WorkerPool &pool() { return pool_; }
    const WorkerPool &pool() const { return pool_; }

  private:
    /** Route buckets for the latency tails. */
    enum class Route : int
    {
        Runs = 0,  //!< POST /v1/runs, /v1/fleet, DELETE (worker-bound)
        Stats = 1, //!< GET /v1/stats, /v1/healthz
        Other = 2, //!< registry reads, errors, unknown routes
    };

    /** How a registry run currently stands. */
    enum class RunState : int
    {
        Queued,
        Running,
        Completed,
        Cancelled,
        Drained,
        RetryLater,
        Error,
        Unreachable, //!< every replica's transport failed
    };
    static const char *toString(RunState state);

    struct RunRecord
    {
        std::uint64_t id = 0;
        RunState state = RunState::Queued;
        std::string policy;
        std::int64_t horizonMinutes = 0;
        std::size_t worker = SIZE_MAX; //!< SIZE_MAX until accepted
        std::uint64_t remoteId = 0;
        bool cacheHit = false;
        std::size_t failovers = 0;
        std::size_t attempts = 0;
        int httpStatus = 0;        //!< terminal only
        std::string envelope;      //!< terminal JSON body
        std::shared_ptr<std::atomic<bool>> cancelRequested =
            std::make_shared<std::atomic<bool>>(false);
    };

    /** One client connection, owned by the event loop. */
    struct Conn
    {
        std::uint64_t id = 0;
        util::TcpConnection sock;
        HttpRequestParser parser;
        std::string pending; //!< received, not yet parsed
        std::string outBuf;
        std::size_t outOff = 0;
        bool busy = false;   //!< a forwarded request is in flight
        bool closeAfterWrite = false;
        bool continueSent = false;
        bool wantWrite = false; //!< EPOLLOUT armed
        std::chrono::steady_clock::time_point lastActivity;
    };

    /** Bytes from a forwarder for connection `connId`. */
    struct Completion
    {
        std::uint64_t connId = 0; //!< 0: no client waiting (async)
        std::string bytes;
        bool endOfResponse = false;
        bool closeAfter = false;
    };

    /** A parsed, validated POST /v1/runs body. */
    struct ParsedRun
    {
        serve::RequestSpec spec;
        std::uint64_t keyHash = 0;
        bool stream = false;
        bool async = false;
    };

    void eventLoop();
    void forwarderLoop();
    void enqueueJob(std::function<void()> job);
    void pushCompletion(Completion completion);
    void wakeLoop();

    void acceptReady();
    void onReadable(Conn &conn);
    void onWritable(Conn &conn);
    void consumePending(Conn &conn);
    void dispatch(Conn &conn);
    void respond(Conn &conn, Route route,
                 std::chrono::steady_clock::time_point started,
                 int status, const std::string &body, bool keep_alive,
                 const std::vector<std::pair<std::string, std::string>>
                     &extra_headers = {});
    void queueBytes(Conn &conn, const std::string &bytes);
    void flushWrites(Conn &conn);
    void setWantWrite(Conn &conn, bool want);
    void closeConn(std::uint64_t conn_id);
    void applyCompletions();
    void reapIdle();
    void recordResponse(int status);

    util::Result<ParsedRun> parseRunRequest(const JsonValue &doc,
                                            bool allow_modes) const;
    std::uint64_t registerRun(const ParsedRun &run);
    void finishRun(std::uint64_t run_id, int http_status,
                   RunState state, const std::string &envelope);

    void handleRuns(Conn &conn,
                    std::chrono::steady_clock::time_point started);
    void handleFleet(Conn &conn,
                     std::chrono::steady_clock::time_point started);
    void handleCancel(Conn &conn,
                      std::chrono::steady_clock::time_point started,
                      std::uint64_t run_id);
    void handleRunGet(Conn &conn,
                      std::chrono::steady_clock::time_point started,
                      std::uint64_t run_id);
    void handleRunList(Conn &conn,
                       std::chrono::steady_clock::time_point started);
    std::string healthzJson() const;
    /**
     * Pull each healthy worker's serve.setup_cache.* counters over a
     * STATS RPC and mirror them into the gateway's registry as
     * gateway.worker.N.serve.* plus gateway.cluster.* aggregates, so
     * cluster-level set-up reuse is one curl away. Blocking; forwarder
     * threads only.
     */
    void collectWorkerServeStats();

    /** What forwardRun resolved to, ready for HTTP rendering. */
    struct ForwardHttp
    {
        int status = 500;
        std::string body;              //!< terminal JSON envelope
        std::uint32_t retryAfterMs = 0; //!< 429 only (header value)
    };

    /**
     * Forward one run on a forwarder thread; returns the HTTP status
     * and terminal envelope, updating the registry. `stream_conn` != 0
     * turns on NDJSON progress chunks to that connection.
     */
    ForwardHttp forwardRun(std::uint64_t run_id,
                           const serve::RequestSpec &spec,
                           std::uint64_t key_hash,
                           std::uint64_t stream_conn);

    const GatewayOptions options_;
    WorkerPool pool_;

    telemetry::Registry stats_;
    telemetry::Counter &connectionsAccepted_ =
        stats_.counter("gateway.connections.accepted");
    /** Over maxConnections, or arrived while draining. */
    telemetry::Counter &connectionsRejected_ =
        stats_.counter("gateway.connections.rejected");
    /** Moved by the event loop only, beside conns_. */
    telemetry::Gauge &connectionsActive_ =
        stats_.gauge("gateway.connections.active");
    telemetry::Counter &idleClosed_ =
        stats_.counter("gateway.connections.idle_closed");
    telemetry::Counter &requests_ = stats_.counter("gateway.http.requests");
    telemetry::Counter &responses2xx_ =
        stats_.counter("gateway.http.responses_2xx");
    telemetry::Counter &responses4xx_ =
        stats_.counter("gateway.http.responses_4xx");
    telemetry::Counter &responses5xx_ =
        stats_.counter("gateway.http.responses_5xx");
    telemetry::Counter &parseErrors_ =
        stats_.counter("gateway.http.parse_errors");
    telemetry::Counter &expectContinue_ =
        stats_.counter("gateway.http.expect_continue");
    telemetry::Counter &bytesIn_ = stats_.counter("gateway.http.bytes_in");
    telemetry::Counter &bytesOut_ = stats_.counter("gateway.http.bytes_out");
    telemetry::Counter &runsSubmitted_ =
        stats_.counter("gateway.runs.submitted");
    telemetry::Counter &runsCompleted_ =
        stats_.counter("gateway.runs.completed");
    telemetry::Counter &runsFailed_ = stats_.counter("gateway.runs.failed");
    telemetry::Counter &runsStreaming_ =
        stats_.counter("gateway.runs.streaming");
    telemetry::Counter &runsAsync_ = stats_.counter("gateway.runs.async");
    telemetry::TailLatency *const latency_[3] = { // indexed by Route
        &stats_.tail("gateway.latency.runs", "_us"),
        &stats_.tail("gateway.latency.stats", "_us"),
        &stats_.tail("gateway.latency.other", "_us")};

    util::TcpListener listener_;
    std::uint16_t port_ = 0;
    int epollFd_ = -1;
    int eventFd_ = -1;

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};

    std::uint64_t nextConnId_ = 2; //!< 0/1 tag listener and eventfd
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;

    std::mutex jobsMutex_;
    std::condition_variable jobsCv_;
    std::deque<std::function<void()>> jobs_;
    bool jobsClosed_ = false;
    std::vector<std::thread> forwarders_;
    std::thread loopThread_;

    std::mutex completionsMutex_;
    std::deque<Completion> completions_;

    mutable std::mutex runsMutex_;
    std::atomic<std::uint64_t> nextRunId_{1};
    std::map<std::uint64_t, RunRecord> runs_;
    std::deque<std::uint64_t> runOrder_;

    std::mutex stopMutex_; //!< serializes waitUntilStopped joins
    bool stopped_ = false;
};

} // namespace ecolo::gateway

#endif // ECOLO_GATEWAY_GATEWAY_HH
