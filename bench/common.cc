#include "common.hh"

#include <cstdlib>
#include <memory>
#include <string>

#include "core/setup_cache.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo::benchutil {

namespace {

const char *
envOrNull(const char *name)
{
    const char *value = std::getenv(name);
    return (value != nullptr && value[0] != '\0') ? value : nullptr;
}

/** Arms telemetry from the environment on startup, flushes on exit. */
struct TelemetryEnvLifecycle
{
    TelemetryEnvLifecycle() { initTelemetryFromEnv(); }
    ~TelemetryEnvLifecycle() { flushTelemetry(); }
};
TelemetryEnvLifecycle g_telemetry_lifecycle;

} // namespace

bool
initTelemetryFromEnv()
{
    if (const char *level_name = envOrNull("EDGETHERM_LOG_LEVEL")) {
        LogLevel level;
        if (parseLogLevel(level_name, level))
            setLogLevel(level);
        else
            warn("unknown EDGETHERM_LOG_LEVEL: ", level_name);
    }

    const bool want = envOrNull("EDGETHERM_METRICS_OUT") != nullptr ||
                      envOrNull("EDGETHERM_EVENTS_OUT") != nullptr ||
                      envOrNull("EDGETHERM_PROFILE_OUT") != nullptr;
    if (!want)
        return false;
    // Build the sinks now, inside the lifecycle object's constructor, so
    // that they outlive its destructor's flush at exit.
    (void)telemetry::registry();
    (void)telemetry::events();
    (void)telemetry::trace();
    telemetry::setEnabled(true);
    if (envOrNull("EDGETHERM_PROFILE_OUT") != nullptr)
        telemetry::trace().begin();
    return telemetry::enabled();
}

void
flushTelemetry()
{
    if (!telemetry::enabled())
        return;
    if (const char *path = envOrNull("EDGETHERM_METRICS_OUT")) {
        if (auto r = telemetry::registry().writeJsonFile(path); !r)
            warn("metrics sink failed: ", r.error().message);
    }
    if (const char *path = envOrNull("EDGETHERM_EVENTS_OUT")) {
        if (auto r = telemetry::events().writeJsonlFile(path); !r)
            warn("events sink failed: ", r.error().message);
    }
    if (const char *path = envOrNull("EDGETHERM_PROFILE_OUT")) {
        telemetry::trace().end();
        if (auto r = telemetry::trace().writeChromeJsonFile(path); !r)
            warn("profile sink failed: ", r.error().message);
    }
}

namespace {

CampaignResult
summarizeCampaign(const core::Simulation &sim, const std::string &label,
                  double parameter)
{
    const auto &m = sim.metrics();
    CampaignResult result;
    result.policy = label;
    result.parameter = parameter;
    result.attackHoursPerDay = m.attackHoursPerDay();
    result.meanInletRise = m.inletRise().mean();
    result.emergencyPercent = 100.0 * m.emergencyFraction();
    result.emergencyHoursPerYear = m.emergencyHoursPerYear();
    result.normalizedPerf =
        m.emergencyPerf().count() ? m.emergencyPerf().mean() : 1.0;
    result.emergencies = m.emergencies();
    result.outages = m.outages();
    return result;
}

/** Run every spec as its own Simulation on the pool; members whose
 * config names no setup cache use `cache` (null: a private one each). */
std::vector<CampaignResult>
runBatch(const std::vector<CampaignSpec> &specs,
         const std::shared_ptr<core::SetupCache> &cache)
{
    std::vector<CampaignResult> results(specs.size());
    util::parallelFor(0, specs.size(), [&](std::size_t k) {
        const CampaignSpec &spec = specs[k];
        ECOLO_ASSERT(spec.makePolicy != nullptr,
                     "campaign spec without a policy factory");
        core::SimulationConfig config = spec.config;
        if (!config.setupCache)
            config.setupCache = cache;
        results[k] = runCampaign(config, spec.makePolicy(config),
                                 spec.days, spec.label, spec.parameter);
    });
    return results;
}

} // namespace

CampaignResult
runCampaign(const core::SimulationConfig &config,
            std::unique_ptr<core::AttackPolicy> policy, double days,
            const std::string &label, double parameter)
{
    telemetry::TraceSpan span(telemetry::enabled()
                                  ? "bench.campaign:" + label
                                  : std::string());
    core::Simulation sim(config, std::move(policy));
    sim.runDays(days);
    return summarizeCampaign(sim, label, parameter);
}

std::vector<CampaignResult>
runCampaigns(const std::vector<CampaignSpec> &specs)
{
    // Setup (trace synthesis, Prony fits, factorization) dominates short
    // campaigns, and sweep members mostly share it: one cache serves the
    // whole batch. The cache computes outside its lock and keeps the
    // first-inserted artifact, so the shared values are deterministic
    // whichever member builds them.
    return runBatch(specs, std::make_shared<core::SetupCache>());
}

std::vector<CampaignResult>
runCampaignsPerThread(const std::vector<CampaignSpec> &specs)
{
    return runBatch(specs, nullptr);
}

std::vector<core::MinuteRecord>
recordRun(const core::SimulationConfig &config,
          std::unique_ptr<core::AttackPolicy> policy, double days)
{
    core::Simulation sim(config, std::move(policy));
    std::vector<core::MinuteRecord> records;
    records.reserve(static_cast<std::size_t>(days * kMinutesPerDay) + 1);
    sim.setMinuteCallback([&](const core::MinuteRecord &r) {
        records.push_back(r);
    });
    sim.runDays(days);
    return records;
}

MinuteIndex
findHighLoadWindow(const std::vector<core::MinuteRecord> &records,
                   MinuteIndex from, MinuteIndex to,
                   MinuteIndex window_minutes)
{
    ECOLO_ASSERT(!records.empty(), "no records to scan");
    const auto n = static_cast<MinuteIndex>(records.size());
    from = std::max<MinuteIndex>(0, from);
    to = std::min(to, n - window_minutes);
    ECOLO_ASSERT(from < to, "empty window-search range");

    // Sliding-window sum of benign power.
    double sum = 0.0;
    for (MinuteIndex m = from; m < from + window_minutes; ++m)
        sum += records[m].benignPower.value();
    double best_sum = sum;
    MinuteIndex best_start = from;
    for (MinuteIndex start = from + 1; start < to; ++start) {
        sum += records[start + window_minutes - 1].benignPower.value() -
               records[start - 1].benignPower.value();
        if (sum > best_sum) {
            best_sum = sum;
            best_start = start;
        }
    }
    return best_start;
}

} // namespace ecolo::benchutil
