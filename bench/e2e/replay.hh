/**
 * @file
 * In-process re-execution of served requests.
 *
 * The oracle renders a run the way the serve tier does
 * (prepareSubmitPayload -> tryMakePolicyByName -> Simulation ->
 * writeMarkdownReport) and must reproduce the gateway's report bytes.
 *
 * The replay (--trace 1) re-runs a seeded sample of the timed requests
 * layer by layer through each module's public functions, timing every
 * call from outside the program. Each sampled request gets a budget: the
 * layer rows plus an `unattributed` row (socket hand-offs, thread
 * wake-ups, queueing) sum to the latency the load generator measured.
 * Spans inside the programs are left to the programs themselves.
 */

#ifndef E2E_REPLAY_HH
#define E2E_REPLAY_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hh"

namespace ecolo::core {
class SetupCache;
}

namespace e2e {

/** Render `spec` in-process; false (with `error`) when it cannot run. */
bool renderReport(const RunSpec &spec,
                  const std::shared_ptr<ecolo::core::SetupCache> &cache,
                  std::string &report, std::string &error);

/**
 * Render `specs` on up to `threads` threads (sharing one set-up cache,
 * as a worker does) and compare each with `live`. Returns the number of
 * mismatches; the first few are described in `errors`.
 */
std::size_t checkAgainstOracle(const std::vector<RunSpec> &specs,
                               const std::vector<std::string> &live,
                               int threads,
                               std::vector<std::string> &errors);

/** One sampled request's latency, split by layer. */
struct Budget
{
    std::size_t call = 0;   //!< index in DriveResult::calls
    double latencyMs = 0.0; //!< as the load generator measured it
    std::vector<std::pair<std::string, double>> rows; //!< layer, ms
    double unattributedMs = 0.0;
    double dominantShare = 0.0; //!< the workload's predicted layer group
};

class Replay
{
  public:
    /**
     * @param lanes micro-batch occupancy to replay batch-lane runs at
     * (the workers' observed mean, rounded)
     * @param dir scratch directory for the replay journal
     */
    Replay(const Plan &plan, const Placement &placement,
           const std::vector<std::string> &labels, std::size_t lanes,
           std::string dir);
    ~Replay();

    /** Replay `samples` seeded-sampled calls of `drive`. */
    bool run(const DriveResult &drive, std::size_t samples,
             std::uint64_t seed, std::string &error);

    /** Per-call costs by per-layer metric name, in the metric's unit. */
    const std::map<std::string, std::vector<double>> &costs() const
    { return costs_; }
    const std::vector<Budget> &budgets() const { return budgets_; }
    /** Replayed reports that differed from the gateway's bytes. */
    const std::vector<std::string> &mismatches() const
    { return mismatches_; }

    /** The sampled call of median latency; null before run(). */
    const Budget *medianBudget() const;
    /** The budget of the median-latency sample, and the mean budget. */
    std::string budgetTable(const DriveResult &drive) const;

    /** Chrome trace: client spans per request plus the replay spans. */
    bool writeTrace(const std::string &path,
                    const DriveResult &drive) const;

  private:
    struct State;
    std::unique_ptr<State> state_;
    std::map<std::string, std::vector<double>> costs_;
    std::vector<Budget> budgets_;
    std::vector<std::string> mismatches_;
};

} // namespace e2e

#endif // E2E_REPLAY_HH
