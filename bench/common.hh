/**
 * @file
 * Shared helpers for the reproduction harnesses: policy construction by
 * name, whole-run drivers, and high-load window selection for the
 * time-series snapshot figures.
 */

#ifndef ECOLO_BENCH_COMMON_HH
#define ECOLO_BENCH_COMMON_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"

namespace ecolo::benchutil {

/** Aggregate outcome of one simulated campaign. */
struct CampaignResult
{
    std::string policy;
    double parameter = 0.0;         //!< p / threshold kW / weight w
    double attackHoursPerDay = 0.0;
    double meanInletRise = 0.0;     //!< deg C above set point
    double emergencyPercent = 0.0;  //!< % of simulated time
    double emergencyHoursPerYear = 0.0;
    double normalizedPerf = 0.0;    //!< 95p latency during emergencies
    std::size_t emergencies = 0;
    std::size_t outages = 0;
};

/** Run a policy for the given number of days and summarize. */
CampaignResult
runCampaign(const core::SimulationConfig &config,
            std::unique_ptr<core::AttackPolicy> policy, double days,
            const std::string &label, double parameter);

/**
 * One campaign of a batch: the policy is described by a factory rather
 * than an instance so it can be constructed inside the worker that runs
 * the campaign (policy construction -- e.g. Foresighted's warm start --
 * is deterministic given the config).
 */
struct CampaignSpec
{
    core::SimulationConfig config;
    std::function<std::unique_ptr<core::AttackPolicy>(
        const core::SimulationConfig &)>
        makePolicy;
    double days = 365.0;
    std::string label;
    double parameter = 0.0;
};

/**
 * Run a batch of independent campaigns and return their results in spec
 * order. Each campaign is one Simulation run on the global thread pool;
 * setup artifacts (traces, Prony fits, factorizations) are shared
 * through one SetupCache. Per campaign the result is bit-identical to
 * calling runCampaign serially on each spec.
 */
std::vector<CampaignResult>
runCampaigns(const std::vector<CampaignSpec> &specs);

/**
 * runCampaigns without the shared SetupCache: every campaign builds its
 * own setup. The baseline leg of the BM_LaneBatchSweep* benchmarks,
 * which isolates what set-up sharing buys; results are bit-identical.
 */
std::vector<CampaignResult>
runCampaignsPerThread(const std::vector<CampaignSpec> &specs);

/**
 * Record every minute of a run into a vector (for snapshot figures).
 * Returns the records; metrics remain available via the returned sim.
 */
std::vector<core::MinuteRecord>
recordRun(const core::SimulationConfig &config,
          std::unique_ptr<core::AttackPolicy> policy, double days);

/**
 * Find the start minute of the `window_minutes`-long window with the
 * highest mean benign power between minute `from` and minute `to`.
 */
MinuteIndex
findHighLoadWindow(const std::vector<core::MinuteRecord> &records,
                   MinuteIndex from, MinuteIndex to,
                   MinuteIndex window_minutes);

/**
 * Enable telemetry when any of EDGETHERM_METRICS_OUT, EDGETHERM_EVENTS_OUT
 * or EDGETHERM_PROFILE_OUT is set in the environment (beginning a trace
 * session for the latter), so any bench binary can be profiled without a
 * rebuild. Honors EDGETHERM_LOG_LEVEL too. Returns true when telemetry was
 * turned on. Called automatically at bench start via a static initializer
 * in common.cc; harmless to call again.
 */
bool initTelemetryFromEnv();

/**
 * Write whichever telemetry sinks initTelemetryFromEnv() armed. Called
 * automatically at normal process exit; safe to call early (e.g. right
 * after the interesting phase) -- later writes just overwrite.
 */
void flushTelemetry();

} // namespace ecolo::benchutil

#endif // ECOLO_BENCH_COMMON_HH
