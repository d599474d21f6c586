/**
 * @file
 * The four seeded workloads and the load generator that drives them.
 *
 * Every input is a function of --seed; the programs under test only
 * receive the generated requests. Request placement is balanced by
 * construction: the generator computes each run's content address with
 * the same library calls the gateway uses (makeCacheKey, rendezvous
 * rankForKey over the live worker labels) and deals runs out so each
 * worker receives the same share. Without that, which worker owns which
 * key would follow the ephemeral ports and change the load from run to
 * run.
 */

#ifndef E2E_WORKLOADS_HH
#define E2E_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace ecolo::gateway {
class WorkerPool;
}

namespace e2e {

/** One simulation run as submitted through the gateway. */
struct RunSpec
{
    std::size_t id = 0; //!< index in Plan::specs()
    std::string policy;
    double param = 0.0;
    std::int64_t horizonMinutes = 0;
    std::uint64_t scenarioSeed = 0;
    bool batch = false;     //!< priority lane
    std::size_t owner = 0;  //!< worker the gateway places it on

    std::string scenario() const;
    /** The run's JSON object, as in a /v1/runs body. */
    std::string json() const;
    /** The SUBMIT payload the gateway builds from that object. */
    ecolo::serve::SubmitPayload payload() const;
};

/** The horizon bound a worker with default options enforces. */
std::int64_t maxHorizonMinutes();

/** One HTTP call: a sync run or a /v1/fleet of runs. */
struct Call
{
    std::vector<RunSpec> runs; //!< copies; generation may still append
    bool fleet = false;
    double due = -1.0; //!< seconds after start (open loop); < 0: closed
    std::string path() const { return fleet ? "/v1/fleet" : "/v1/runs"; }
    std::string body() const;
};

/** Where the gateway's rendezvous hash places a run. */
class Placement
{
  public:
    explicit Placement(const std::vector<std::string> &labels);
    ~Placement();

    std::size_t owner(const RunSpec &spec) const;
    /** The content address the gateway shards on. */
    std::uint64_t keyHash(const RunSpec &spec) const;
    ecolo::gateway::WorkerPool &pool() const { return *pool_; }

  private:
    std::unique_ptr<ecolo::gateway::WorkerPool> pool_;
};

/** A workload: its traffic, its loop shape, and its latency limit. */
class Plan
{
  public:
    virtual ~Plan() = default;

    const std::string &name() const { return name_; }
    int connections() const { return connections_; }
    double limitMs() const { return limitMs_; }
    virtual bool openLoop() const { return false; }

    /** Untimed calls that fill caches before the timed phase. */
    virtual std::vector<Call> warmup() = 0;
    /** Open loop: every timed call with its due time. */
    virtual std::vector<Call> schedule() { return {}; }
    /** Closed loop: the next call connection `conn` sends. */
    virtual Call next(int conn) = 0;

    /** Every run generated so far, indexed by RunSpec::id. */
    std::vector<RunSpec> specs() const;

  protected:
    Plan(std::string name, int connections, double limit_ms,
         const Placement &placement)
        : name_(std::move(name)), connections_(connections),
          limitMs_(limit_ms), placement_(placement)
    {}

    /** Assign id and owner, record, and return the spec. */
    RunSpec record(RunSpec spec);

    /**
     * Deals candidates from a deterministic sequence out by owner:
     * next(w) returns the next candidate the gateway places on worker w,
     * keeping the others queued for their own owner.
     */
    class Dealer;

    const std::string name_;
    const int connections_;
    const double limitMs_;
    const Placement &placement_;

    mutable std::mutex mutex_; //!< guards specs_ and the generators
    std::vector<RunSpec> specs_;
};

/** Builds the named workload; nullptr for an unknown name. */
std::unique_ptr<Plan> makePlan(const std::string &name, std::uint64_t seed,
                               double seconds, double scale,
                               const Placement &placement);

extern const char *const kWorkloadNames[4];

/** The fixed cold 1-day request behind setup_s. */
RunSpec setupProbe();

/** Shuffle `v` with the generator's own seeded stream (for samples). */
void seededShuffle(std::vector<std::size_t> &v, std::uint64_t seed);

/** What one run inside a response came back as. */
struct RunOutcome
{
    std::size_t id = 0;
    bool ok = false;
    bool cacheHit = false;
    bool misplaced = false; //!< answered by another worker than owner
    std::string worker;
    std::uint64_t reportHash = 0;
};

/** One timed call as the load generator saw it. */
struct CallRecord
{
    Call call;
    int conn = 0;
    double picked = 0.0; //!< connection free and call chosen (s)
    double sent = 0.0;   //!< first byte written (s)
    double done = 0.0;   //!< last byte read (s)
    double latencyMs = 0.0; //!< from due time (open) or send (closed)
    double lagMs = 0.0;     //!< generator lateness: sent - max(due, picked)
    bool ok = false;
    int status = 0;
    std::string error;
    std::vector<RunOutcome> runs;
};

/** Daemon CPU seconds at one instant of the timed phase. */
struct CpuSample
{
    double at = 0.0; //!< seconds after start
    double cpuSeconds = 0.0;
};

struct DriveResult
{
    std::vector<CallRecord> calls;
    double wallSeconds = 0.0;
    /**
     * Closed loops: window boundaries, taken by connection 0 at its
     * first completion past each of `windows` equal steps (plus the
     * start), so per-window rates can be medianed.
     */
    std::vector<CpuSample> windows;
    /** First report bytes seen per run id. */
    std::map<std::size_t, std::string> reports;
    std::size_t inconsistent = 0; //!< same run, different bytes
    std::vector<std::string> errors; //!< first few failures, verbatim
};

/**
 * Send `calls` closed-loop on `connections` keep-alive connections and
 * check every answer (untimed set-up traffic).
 */
bool runCalls(std::uint16_t port, const std::vector<Call> &calls,
              int connections, std::string &error);

/**
 * The timed phase: open or closed loop for `seconds`. `cpu` reads the
 * daemons' CPU seconds for the closed-loop window boundaries.
 */
DriveResult drive(Plan &plan, std::uint16_t port, double seconds,
                  const std::vector<std::string> &labels,
                  const std::function<double()> &cpu, int windows);

/**
 * Check one response against its call; fills `runs` and, for runs
 * whose report is requested, `report`. False on any failure.
 */
bool checkResponse(const Call &call, int status, const std::string &body,
                   const std::vector<std::string> &labels,
                   std::vector<RunOutcome> &runs,
                   std::map<std::size_t, std::string> *reports,
                   std::string &error);

} // namespace e2e

#endif // E2E_WORKLOADS_HH
