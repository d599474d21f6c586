#include "core/engine.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "core/setup_cache.hh"
#include "telemetry/telemetry.hh"
#include "trace/generators.hh"
#include "util/logging.hh"

namespace ecolo::core {

const char *
slotPhaseName(SlotPhase phase)
{
    switch (phase) {
      case SlotPhase::Tenants: return "tenants";
      case SlotPhase::Observation: return "observation";
      case SlotPhase::Policy: return "policy";
      case SlotPhase::Attacker: return "attacker";
      case SlotPhase::Gather: return "gather";
      case SlotPhase::Pdu: return "pdu";
      case SlotPhase::Thermal: return "thermal";
      case SlotPhase::Operator: return "operator";
      case SlotPhase::Metrics: return "metrics";
      case SlotPhase::Count: break;
    }
    return "unknown";
}

/**
 * What one instrumented run() call collects, kept here and published
 * once when the call returns: a slot with telemetry on takes no stat
 * lookup, lock or allocation. The one per-sample stat goes through a
 * reference resolved when the call starts.
 */
struct Simulation::RunTelemetry
{
    telemetry::TelemetryHistogram &estimateError =
        telemetry::registry().histogram("sidechannel.estimate_error_kw");
    /** The phase clock: each lap charges the time since the previous
     * one, so the phases partition the whole call, one read per lap. */
    std::chrono::steady_clock::time_point lastLap =
        std::chrono::steady_clock::now();
    std::array<std::uint64_t, kNumSlotPhases> phaseNs{};
    std::uint64_t cappingMinutes = 0;
    std::uint64_t attackMinutes = 0;
    std::uint64_t staleEstimates = 0;
    std::uint64_t emergencies = 0;
    std::uint64_t outages = 0;
    double maxInlet = 0.0;
    double soc = 0.0;

    /** Charge the time since the previous lap to `phase`. */
    void lap(SlotPhase phase)
    {
        const auto t = std::chrono::steady_clock::now();
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - lastLap);
        phaseNs[static_cast<std::size_t>(phase)] +=
            static_cast<std::uint64_t>(ns.count());
        lastLap = t;
    }

    /** Publish the call's stats; `slots` is how many it stepped. */
    void publish(std::uint64_t slots) const;
};

void
Simulation::RunTelemetry::publish(std::uint64_t slots) const
{
    if (slots == 0)
        return;
    auto &reg = telemetry::registry();
    for (std::size_t p = 0; p < kNumSlotPhases; ++p) {
        reg.counter(std::string("engine.phase.") +
                    slotPhaseName(static_cast<SlotPhase>(p)) + "_ns")
            .inc(phaseNs[p]);
    }
    reg.counter("engine.phase.slots").inc(slots);
    reg.counter("engine.minutes").inc(slots);
    reg.counter("engine.capping.minutes").inc(cappingMinutes);
    reg.counter("engine.attack.minutes").inc(attackMinutes);
    reg.gauge("engine.inlet.max_c").set(maxInlet);
    reg.gauge("battery.soc").set(soc);
    // Edge events: registered only once they happen.
    if (staleEstimates > 0)
        reg.counter("sidechannel.estimate.stale").inc(staleEstimates);
    if (emergencies > 0)
        reg.counter("engine.emergency.declared").inc(emergencies);
    if (outages > 0)
        reg.counter("engine.outage.count").inc(outages);
}

namespace {

/** Per-tenant jitter so the three benign tenants are not clones. */
trace::UtilizationTrace
makeBenignTrace(const SimulationConfig &config, std::size_t tenant_index,
                Rng &rng)
{
    const std::size_t horizon = kMinutesPerYear;
    const auto k = static_cast<double>(tenant_index);
    if (config.traceKind == TraceKind::GoogleStyle) {
        trace::GoogleStyleTraceGenerator::Params params =
            config.googleParams;
        params.peakHour += k * 0.7;
        params.meanDwellMinutes *= 1.0 + 0.15 * k;
        return trace::GoogleStyleTraceGenerator(params).generate(horizon,
                                                                 rng);
    }
    if (config.traceKind == TraceKind::RequestLevel) {
        trace::RequestTraceGenerator::Params params;
        params.peakHour += 0.4 * (k - 1.0);
        params.peakRequestsPerSecond *= 1.0 + 0.05 * (k - 1.0);
        return trace::RequestTraceGenerator(params).generate(horizon, rng);
    }
    trace::DiurnalTraceGenerator::Params params = config.diurnalParams;
    params.peakHour += 0.4 * (k - 1.0);  // stagger peaks around 14:00
    params.baseUtilization += 0.02 * (k - 1.0);
    params.burstsPerDay += k;
    return trace::DiurnalTraceGenerator(params).generate(horizon, rng);
}

/**
 * The generated benign traces, unscaled. The alternate (Google-style)
 * trace models ONE recorded cluster trace driving the whole site (the
 * paper's "alternate total power trace"), so every tenant shares it; the
 * default diurnal trace is per-tenant with jitter.
 */
SetupCache::TraceSet
makeBenignTraceSet(const SimulationConfig &config, Rng &rng)
{
    if (config.traceKind == TraceKind::GoogleStyle)
        return SetupCache::TraceSet(config.numBenignTenants,
                                    makeBenignTrace(config, 0, rng));
    SetupCache::TraceSet set(config.numBenignTenants);
    for (std::size_t k = 0; k < set.size(); ++k)
        set[k] = makeBenignTrace(config, k, rng);
    return set;
}

} // namespace

Simulation::Simulation(SimulationConfig config,
                       std::unique_ptr<AttackPolicy> policy)
    : config_([&] {
          config.validate();
          // One set-up path: a simulation built without a shared cache
          // gets a private one, so cold set-up is the cache's miss path.
          if (!config.setupCache)
              config.setupCache = std::make_shared<SetupCache>();
          return config;
      }()),
      layout_(config_.layout),
      rng_(config_.seed),
      attackerTenant_("attacker", config_.attackerSubscription,
                      config_.attackerNumServers, config_.serverSpec),
      attackerSupply_(config_.batterySpec, config_.attackerSubscription),
      thermal_(makeThermalEnvironment(config_, layout_)),
      channel_(config_.sideChannel, Rng(config_.seed ^ 0x5e1dc4a2ULL)),
      latency_(config_.latency),
      pdu_(config_.capacity),
      operator_([&] {
          ColoOperator::Params params;
          params.emergencyThreshold = config_.emergencyThreshold;
          params.sustainMinutes = config_.emergencySustainMinutes;
          params.cappingMinutes = config_.cappingMinutes;
          params.shutdownThreshold = config_.shutdownThreshold;
          params.outageRestartMinutes = config_.outageRestartMinutes;
          params.adaptiveCapping = config_.adaptiveCapping;
          return params;
      }()),
      policy_(std::move(policy)),
      faultsEnabled_(!config_.faultSchedule.empty()),
      lastValidEstimate_(config_.attackerSubscription),
      lastHeat_(config_.numServers(), Kilowatts(0.0)),
      lastMetered_(config_.numServers(), Kilowatts(0.0))
{
    ECOLO_ASSERT(policy_ != nullptr, "simulation needs an attack policy");
    ECOLO_ASSERT(layout_.numServers() == config_.numServers(),
                 "layout/server-count mismatch");
    buildTenants();

    pdu_.addCircuit(config_.attackerSubscription);
    for (const auto &tenant : benignTenants_)
        pdu_.addCircuit(tenant.subscribedCapacity());
}

thermal::ThermalEnvironment
Simulation::makeThermalEnvironment(const SimulationConfig &config,
                                   const power::DataCenterLayout &layout)
{
    SetupCache &cache = *config.setupCache;
    auto matrix = cache.matrix(SetupCache::matrixKey(config), [&] {
        telemetry::TraceSpan span("setup.matrix");
        return thermal::HeatDistributionMatrix::analyticDefault(
            layout, config.matrixParams, config.matrixHorizonMinutes);
    });
    // The factorization is the single most expensive thermal setup
    // step and only feeds the streaming kernel's Prony fit; the
    // dense kernel never computes one, so do not force it here.
    std::shared_ptr<const thermal::TemporalFactorization> factors;
    if (config.thermalMode != thermal::KernelMode::Dense) {
        factors = cache.factorization(
            SetupCache::factorizationKey(config), [&] {
                telemetry::TraceSpan span("setup.factorize");
                return thermal::TemporalFactorization::compute(
                    *matrix, config.factorization);
            });
    }
    return thermal::ThermalEnvironment(*matrix, config.cooling, 15.0,
                                       config.thermalMode,
                                       config.factorization,
                                       std::move(factors));
}

void
Simulation::buildTenants()
{
    // Always fork, even when the trace cache hits: the fork advances
    // rng_, and the engine's own stream must not depend on whether the
    // traces were generated by this simulation.
    Rng trace_rng = rng_.fork();
    SetupCache &cache = *config_.setupCache;
    const std::shared_ptr<const SetupCache::TraceSet> traces =
        cache.traceSet(SetupCache::traceSetKey(config_), [&] {
            telemetry::TraceSpan span("setup.trace_generate");
            return makeBenignTraceSet(config_, trace_rng);
        });
    // Each tenant points into the shared set (the aliasing pointer keeps
    // the whole set alive) and applies the site's scale factor at read
    // time, so no member copies or rescales a trace.
    const auto tenant_trace = [&](std::size_t k) {
        return std::shared_ptr<const trace::UtilizationTrace>(
            traces, &(*traces)[k]);
    };
    benignTenants_.reserve(config_.numBenignTenants);
    tenantPower_.assign(config_.numBenignTenants, Kilowatts(0.0));
    std::vector<power::Tenant *> tenant_ptrs;
    for (std::size_t k = 0; k < config_.numBenignTenants; ++k) {
        benignTenants_.emplace_back("tenant-" + std::to_string(k + 1),
                                    config_.benignSubscription(),
                                    config_.serversPerBenignTenant(),
                                    config_.serverSpec);
        benignTenants_.back().setTrace(tenant_trace(k), 1.0);
        tenant_ptrs.push_back(&benignTenants_.back());
    }

    // Scale so that the *whole* data center (attacker idling on dummy
    // workloads included) averages the configured utilization of capacity.
    const Kilowatts attacker_standby =
        config_.serverSpec.powerAt(config_.attackerStandbyUtilization) *
        static_cast<double>(config_.attackerNumServers);
    const Kilowatts target =
        config_.capacity * config_.averageUtilization - attacker_standby;
    ECOLO_ASSERT(target.value() > 0.0,
                 "average utilization target leaves no benign power");
    const double factor =
        cache.scaleFactor(SetupCache::scaleFactorKey(config_), [&] {
            telemetry::TraceSpan span("setup.scale_solve");
            return power::computeMeanPowerScaleFactor(tenant_ptrs, target);
        });
    for (std::size_t k = 0; k < benignTenants_.size(); ++k)
        benignTenants_[k].setTrace(tenant_trace(k), factor);
}

Kilowatts
Simulation::benignActualPower() const
{
    Kilowatts total(0.0);
    for (const Kilowatts p : tenantPower_)
        total += p;
    return total;
}

AttackObservation
Simulation::makeObservation(bool capping, bool outage, RunTelemetry *stats)
{
    AttackObservation obs;
    obs.time = now_;
    obs.batterySoc = attackerSupply_.battery().soc();
    obs.cappingActive = capping;
    obs.outage = outage;

    if (outage) {
        obs.estimatedLoad = config_.attackerSubscription;
    } else {
        // The attacker estimates the benign aggregate via the voltage side
        // channel (it knows and subtracts its own draw), then reasons in
        // terms of "benign load + my subscription" as in the paper.
        const Kilowatts benign_actual = benignActualPower();
        const Kilowatts estimate = channel_.estimateAveraged(
            benign_actual, config_.sideChannel.samplesPerEstimate);
        if (std::isnan(estimate.value())) {
            // Sensor fault (dropout / corrupted samples): hold the last
            // valid estimate. Policies discretize estimatedLoad into
            // table indices, so a NaN must never reach them.
            obs.estimatedLoad = lastValidEstimate_;
            obs.estimateStale = true;
            ECOLO_WARN_RATE_LIMITED(
                5, "side-channel estimate invalid at minute ", now_,
                "; holding last valid estimate (",
                lastValidEstimate_.value(), " kW)");
            if (stats)
                ++stats->staleEstimates;
        } else {
            obs.estimatedLoad = estimate + config_.attackerSubscription;
            lastValidEstimate_ = obs.estimatedLoad;
            if (stats) {
                stats->estimateError.add(
                    std::abs(estimate.value() - benign_actual.value()));
            }
        }
    }

    // The attacker's own inlet sensors: its servers are the first
    // attackerNumServers global indices (bottom of rack 0).
    double hottest = -1e30;
    for (std::size_t i = 0; i < config_.attackerNumServers; ++i)
        hottest = std::max(hottest,
                           thermal_.inletTemperature(i).value());
    obs.inletTemperature = Celsius(hottest);
    return obs;
}

void
Simulation::stepMinute(RunTelemetry *stats)
{
    const auto lap = [stats](SlotPhase phase) {
        if (stats)
            stats->lap(phase);
    };

    // ---- 0. Fault injection (skipped entirely on healthy configs). ----
    if (faultsEnabled_) {
        applyFaultsForMinute();
        if (stats) {
            const bool faults_active = faultsNow_.any();
            if (faults_active != prevFaultsActive_) {
                telemetry::emitEvent(now_,
                                     faults_active
                                         ? telemetry::EventKind::
                                               FaultActivated
                                         : telemetry::EventKind::
                                               FaultExpired);
                prevFaultsActive_ = faults_active;
            }
        }
    }

    // The command in force this minute; step 6b replaces command_ with
    // next minute's, so everything recorded in step 8 is read here.
    const bool capping = command_.capServers;
    const bool outage = command_.outage;
    // Degraded-mode preventive capping (operator fault response) caps at
    // its own level when no emergency cap is in force.
    const bool preventive =
        !capping && command_.preventiveCapLevel.has_value();
    const bool any_cap = capping || preventive;
    const Kilowatts cap_level =
        capping
            ? command_.capLevel.value_or(config_.perServerCap)
            : command_.preventiveCapLevel.value_or(config_.perServerCap);
    const bool degraded_now = command_.degraded;
    const double shed_fraction = command_.shedFraction;

    if (stats && any_cap != prevAnyCap_) {
        telemetry::emitEvent(now_,
                             any_cap ? telemetry::EventKind::CappingStart
                                     : telemetry::EventKind::CappingEnd,
                             any_cap ? cap_level.value() : 0.0);
        prevAnyCap_ = any_cap;
    }

    // ---- 1. Benign tenants follow their traces; operator commands. ----
    // A trace-gap fault freezes the telemetry feed: tenants keep replaying
    // the last pre-gap minute instead of dying on missing data.
    const MinuteIndex trace_minute =
        (faultsEnabled_ && faultsNow_.traceGap)
            ? std::max<MinuteIndex>(0, faultsNow_.traceGapStart - 1)
            : now_;
    for (auto &tenant : benignTenants_) {
        tenant.applyTraceAt(trace_minute);
        tenant.setPoweredOn(!outage);
        if (any_cap)
            tenant.setPerServerCap(cap_level);
        else
            tenant.clearCaps();
    }

    // Hard server failures (fault) and commanded partial shutdown
    // (degraded-mode response) power off benign servers from the back of
    // the bank; both are zero on healthy runs.
    if (!outage) {
        const std::size_t num_benign = config_.numBenignServers();
        const std::size_t shed = static_cast<std::size_t>(
            shed_fraction * static_cast<double>(num_benign));
        const std::size_t failed =
            faultsEnabled_ ? faultsNow_.failedServers : 0;
        std::size_t remaining = std::min(num_benign, shed + failed);
        for (auto tenant = benignTenants_.rbegin();
             tenant != benignTenants_.rend() && remaining > 0; ++tenant) {
            const std::size_t k = std::min(remaining, tenant->numServers());
            tenant->powerOffLast(k);
            remaining -= k;
        }
    }
    // Benign tenants hold this state until the next minute: their power
    // is computed once here for the side channel, the PDU and step 7.
    for (std::size_t k = 0; k < benignTenants_.size(); ++k)
        tenantPower_[k] = benignTenants_[k].actualPower();

    attackerTenant_.setPoweredOn(!outage);
    if (any_cap)
        attackerTenant_.setPerServerCap(cap_level);
    else
        attackerTenant_.clearCaps();
    lap(SlotPhase::Tenants);

    // ---- 2. Observation, learning feedback, day boundary. ----
    const AttackObservation obs = makeObservation(any_cap, outage, stats);
    lap(SlotPhase::Observation);
    if (havePending_)
        policy_->feedback(lastObs_, lastAction_, obs);
    if (now_ > 0 && now_ % kMinutesPerDay == 0)
        policy_->onDayBoundary(dayIndex(now_));

    // ---- 3. Decide and enforce protocol compliance. ----
    AttackAction action = policy_->decide(obs);
    if (outage) {
        action = AttackAction::Standby;
    } else if (any_cap && !policy_->ignoresCapping() &&
               action == AttackAction::Attack) {
        action = obs.batterySoc < 1.0 ? AttackAction::Charge
                                      : AttackAction::Standby;
    }
    lap(SlotPhase::Policy);

    // ---- 4. Attacker power execution. ----
    // A BMS cutout isolates the battery: neither discharging (the attack
    // fizzles at the grid cap) nor charging is possible.
    const bool bms_cutout = faultsEnabled_ && faultsNow_.bmsCutout;
    battery::SupplyResult supply{Kilowatts(0.0), Kilowatts(0.0),
                                 Kilowatts(0.0)};
    if (!outage) {
        std::optional<Kilowatts> grid_limit;
        if (any_cap)
            grid_limit = cap_level *
                         static_cast<double>(config_.attackerNumServers);
        switch (action) {
          case AttackAction::Attack: {
            attackerTenant_.setUtilization(1.0);
            const Kilowatts demand =
                config_.attackerSubscription + config_.attackLoad;
            supply = attackerSupply_.step(
                demand,
                bms_cutout ? battery::SupplyMode::GridOnly
                           : battery::SupplyMode::DischargeBattery,
                minutes(1), grid_limit);
            break;
          }
          case AttackAction::Charge: {
            attackerTenant_.setUtilization(
                config_.attackerStandbyUtilization);
            supply = attackerSupply_.step(
                attackerTenant_.actualPower(),
                bms_cutout ? battery::SupplyMode::GridOnly
                           : battery::SupplyMode::ChargeBattery,
                minutes(1), grid_limit);
            break;
          }
          case AttackAction::Standby: {
            attackerTenant_.setUtilization(
                config_.attackerStandbyUtilization);
            supply = attackerSupply_.step(
                attackerTenant_.actualPower(),
                battery::SupplyMode::GridOnly, minutes(1), grid_limit);
            break;
          }
        }
    }

    lap(SlotPhase::Attacker);

    // ---- 5. Per-server heat and metering. ----
    const std::size_t n_attacker = config_.attackerNumServers;
    const Kilowatts attacker_heat_per_server =
        supply.serverPower / static_cast<double>(n_attacker);
    const Kilowatts attacker_grid_per_server =
        supply.gridPower / static_cast<double>(n_attacker);
    // Running sums in server order, as a pass over lastHeat_ would add
    // them; off servers' +0.0 terms are dropped (DESIGN.md §4 rule 12).
    Kilowatts heat_total(0.0);
    std::size_t server = 0;
    for (; server < n_attacker; ++server) {
        lastHeat_[server] = attacker_heat_per_server;
        lastMetered_[server] = attacker_grid_per_server;
        heat_total += attacker_heat_per_server;
    }
    Kilowatts benign_total(0.0);
    for (const auto &tenant : benignTenants_) {
        const Kilowatts p = tenant.serverActualPower();
        const std::size_t on = tenant.numPoweredOn();
        for (std::size_t i = 0; i < on; ++i, ++server) {
            lastHeat_[server] = p;
            lastMetered_[server] = p;
            benign_total += p;
            heat_total += p;
        }
        const std::size_t off = tenant.numServers() - on;
        std::fill_n(lastHeat_.begin() + server, off, Kilowatts(0.0));
        std::fill_n(lastMetered_.begin() + server, off, Kilowatts(0.0));
        server += off;
    }
    ECOLO_ASSERT(server == config_.numServers(),
                 "server heat vector not fully populated");
    lap(SlotPhase::Gather);

    pdu_.setEnergized(!outage);
    pdu_.setCircuitDraw(0, supply.gridPower);
    for (std::size_t k = 0; k < benignTenants_.size(); ++k)
        pdu_.setCircuitDraw(k + 1, tenantPower_[k]);
    const Kilowatts metered_total = pdu_.totalMeteredPower();
    lap(SlotPhase::Pdu);

    // ---- 6a. Thermal step. ----
    thermal_.stepMinute(lastHeat_, heat_total);
    lap(SlotPhase::Thermal);

    // ---- 6b. Operator reaction. ----
    // The attacker's batteries breathe the data center air; with a
    // thermally-aware battery spec this derates their usable capacity.
    attackerSupply_.battery().setAmbient(thermal_.inletTemperature(0));
    const Celsius max_inlet = thermal_.maxInletTemperature();
    // The operator trips on its own (possibly noisy) sensors; with noise
    // configured, occasional spurious emergencies occur even without an
    // attack -- the statistics the paper notes an attacker could hide
    // behind (Section VII-B).
    Celsius sensed_inlet = max_inlet;
    if (config_.operatorSensorNoise > 0.0) {
        sensed_inlet = max_inlet + CelsiusDelta(rng_.normal(
                           0.0, config_.operatorSensorNoise));
    }
    // The operator's own health telemetry: CRAC derating is visible on
    // the unit's controller, and a telemetry dropout blinds the inlet
    // feed (the operator falls back to its last good reading).
    DegradedContext degraded_ctx;
    if (faultsEnabled_) {
        degraded_ctx.coolingCapacityFactor =
            faultsNow_.coolingCapacityFactor;
        degraded_ctx.sensorValid = !faultsNow_.sideChannelDropout;
    }
    command_ = operator_.observeMinute(sensed_inlet, degraded_ctx);

    // observeMinute raises each count at most once, and loadState
    // accepts only counts already in step with the operator's.
    if (emergenciesSeen_ < operator_.emergenciesDeclared()) {
        metrics_.noteEmergencyDeclared();
        ++emergenciesSeen_;
        if (stats)
            ++stats->emergencies;
    }
    if (outagesSeen_ < operator_.outages()) {
        metrics_.noteOutage();
        ++outagesSeen_;
        if (stats)
            ++stats->outages;
    }

    if (stats) {
        using telemetry::EventKind;
        const OperatorState op_state = operator_.state();
        if (op_state != prevOpState_) {
            if (op_state == OperatorState::Emergency) {
                telemetry::emitEvent(now_, EventKind::EmergencyDeclared,
                                     sensed_inlet.value());
            } else if (prevOpState_ == OperatorState::Emergency) {
                telemetry::emitEvent(now_, EventKind::EmergencyCleared,
                                     sensed_inlet.value());
            }
            if (op_state == OperatorState::Outage) {
                telemetry::emitEvent(now_, EventKind::Outage,
                                     sensed_inlet.value());
            } else if (prevOpState_ == OperatorState::Outage) {
                telemetry::emitEvent(now_, EventKind::OutageEnded,
                                     sensed_inlet.value());
            }
            prevOpState_ = op_state;
        }

        // Degraded-mode severity tier: 0 = healthy, 1 = set-point raise
        // only, 2 = preventive capping, 3 = partial shutdown.
        int tier = 0;
        if (command_.degraded) {
            tier = 1;
            if (command_.preventiveCapLevel.has_value())
                tier = 2;
            if (command_.shedFraction > 0.0)
                tier = 3;
        }
        if (tier != prevDegradedTier_) {
            telemetry::emitEvent(now_, EventKind::DegradedTierChange,
                                 static_cast<double>(tier));
            prevDegradedTier_ = tier;
        }

        const double soc = attackerSupply_.battery().soc();
        const double min_soc = minAttackSoc(config_);
        if (!batteryDepletedLatched_ && soc < min_soc) {
            telemetry::emitEvent(now_, EventKind::BatteryDepleted, soc);
            batteryDepletedLatched_ = true;
        } else if (batteryDepletedLatched_ && soc >= min_soc) {
            batteryDepletedLatched_ = false; // re-arm after recharge
        }

        if (any_cap)
            ++stats->cappingMinutes;
        if (action == AttackAction::Attack)
            ++stats->attackMinutes;
        stats->maxInlet = max_inlet.value();
        stats->soc = soc;
    }
    lap(SlotPhase::Operator);

    // ---- 7. Performance accounting during capped minutes. ----
    if (any_cap && !outage) {
        double sum = 0.0;
        for (std::size_t k = 0; k < benignTenants_.size(); ++k) {
            const auto &tenant = benignTenants_[k];
            const Kilowatts demand = tenant.demandPower();
            const double fraction =
                demand.value() > 1e-9
                    ? std::clamp(tenantPower_[k] / demand, 1e-6, 1.0)
                    : 1.0;
            const double norm =
                latency_.normalizedP95(tenant.utilization(), fraction);
            metrics_.recordTenantEmergencyPerf(k, norm);
            sum += norm;
        }
        metrics_.recordEmergencyPerf(
            sum / static_cast<double>(benignTenants_.size()));
    }

    // ---- 8. Record the minute. ----
    MinuteRecord record;
    record.time = now_;
    record.meteredTotal = metered_total;
    record.actualHeat = heat_total;
    record.attackBatteryPower =
        std::max(Kilowatts(0.0), supply.batteryPower);
    record.benignPower = benign_total;
    record.maxInlet = max_inlet;
    record.supply = thermal_.supplyTemperature();
    record.batterySoc = attackerSupply_.battery().soc();
    record.action = action;
    record.cappingActive = capping;
    record.outage = outage;
    record.degraded = degraded_now;
    record.shedFraction = shed_fraction;
    record.estimateStale = obs.estimateStale;
    metrics_.recordMinute(record, config_.cooling.supplySetPoint,
                          thermal_.meanInletTemperature());
    if (callback_)
        callback_(record);

    lastObs_ = obs;
    lastAction_ = action;
    havePending_ = true;
    ++now_;
    lap(SlotPhase::Metrics);
}

void
Simulation::applyFaultsForMinute()
{
    faultsNow_ = config_.faultSchedule.activeAt(now_);

    // CRAC faults derate the cooling plant; the operator's commanded
    // set-point raise (a degraded-mode response decided last minute) is
    // applied alongside so the two compose in the capacity model.
    thermal_.cooling().setFaultDerating(faultsNow_.coolingCapacityFactor,
                                        faultsNow_.coolingRecoveryFactor);
    thermal_.cooling().setSetPointOffset(command_.setPointRaise);
    attackerSupply_.battery().setFaultCapacityFactor(
        faultsNow_.batteryCapacityFactor);

    using sidechannel::SensorFaultMode;
    SensorFaultMode mode = SensorFaultMode::Healthy;
    if (faultsNow_.sideChannelDropout)
        mode = SensorFaultMode::Dropout;
    else if (faultsNow_.sideChannelNan)
        mode = SensorFaultMode::Nan;
    else if (faultsNow_.sideChannelStuck)
        mode = SensorFaultMode::Stuck;
    channel_.setFaultMode(mode);
}

void
Simulation::saveState(util::StateWriter &writer) const
{
    writer.tag("SIM ");
    writer.i64(now_);
    rng_.saveState(writer);

    writer.boolean(command_.capServers);
    writer.boolean(command_.outage);
    writer.boolean(command_.capLevel.has_value());
    writer.f64(command_.capLevel ? command_.capLevel->value() : 0.0);
    writer.boolean(command_.preventiveCapLevel.has_value());
    writer.f64(command_.preventiveCapLevel
                   ? command_.preventiveCapLevel->value()
                   : 0.0);
    writer.f64(command_.setPointRaise.value());
    writer.f64(command_.shedFraction);
    writer.boolean(command_.degraded);

    writer.i64(lastObs_.time);
    writer.f64(lastObs_.batterySoc);
    writer.f64(lastObs_.estimatedLoad.value());
    writer.f64(lastObs_.inletTemperature.value());
    writer.boolean(lastObs_.cappingActive);
    writer.boolean(lastObs_.outage);
    writer.boolean(lastObs_.estimateStale);
    writer.u32(static_cast<std::uint32_t>(lastAction_));
    writer.boolean(havePending_);
    writer.f64(lastValidEstimate_.value());
    writer.u64(emergenciesSeen_);
    writer.u64(outagesSeen_);

    std::vector<double> kw(lastHeat_.size());
    for (std::size_t i = 0; i < lastHeat_.size(); ++i)
        kw[i] = lastHeat_[i].value();
    writer.f64Vector(kw);
    for (std::size_t i = 0; i < lastMetered_.size(); ++i)
        kw[i] = lastMetered_[i].value();
    writer.f64Vector(kw);

    attackerSupply_.saveState(writer);
    thermal_.saveState(writer);
    channel_.saveState(writer);
    operator_.saveState(writer);
    policy_->saveState(writer);
    metrics_.saveState(writer);
}

void
Simulation::loadState(util::StateReader &reader)
{
    reader.tag("SIM ");
    now_ = reader.i64();
    rng_.loadState(reader);

    command_.capServers = reader.boolean();
    command_.outage = reader.boolean();
    const bool have_cap = reader.boolean();
    const double cap_kw = reader.f64();
    command_.capLevel =
        have_cap ? std::optional<Kilowatts>(Kilowatts(cap_kw))
                 : std::nullopt;
    const bool have_preventive = reader.boolean();
    const double preventive_kw = reader.f64();
    command_.preventiveCapLevel =
        have_preventive ? std::optional<Kilowatts>(Kilowatts(preventive_kw))
                        : std::nullopt;
    command_.setPointRaise = CelsiusDelta(reader.f64());
    command_.shedFraction = reader.f64();
    command_.degraded = reader.boolean();

    lastObs_.time = reader.i64();
    lastObs_.batterySoc = reader.f64();
    lastObs_.estimatedLoad = Kilowatts(reader.f64());
    lastObs_.inletTemperature = Celsius(reader.f64());
    lastObs_.cappingActive = reader.boolean();
    lastObs_.outage = reader.boolean();
    lastObs_.estimateStale = reader.boolean();
    lastAction_ = static_cast<AttackAction>(reader.u32());
    havePending_ = reader.boolean();
    lastValidEstimate_ = Kilowatts(reader.f64());
    emergenciesSeen_ = static_cast<std::size_t>(reader.u64());
    outagesSeen_ = static_cast<std::size_t>(reader.u64());

    const std::vector<double> heat_kw = reader.f64Vector();
    const std::vector<double> metered_kw = reader.f64Vector();
    if (reader.ok() && (heat_kw.size() != lastHeat_.size() ||
                        metered_kw.size() != lastMetered_.size())) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "server-count mismatch restoring simulation state: "
            "checkpoint has ",
            heat_kw.size(), " servers, config has ", lastHeat_.size()));
        return;
    }
    for (std::size_t i = 0; i < heat_kw.size(); ++i)
        lastHeat_[i] = Kilowatts(heat_kw[i]);
    for (std::size_t i = 0; i < metered_kw.size(); ++i)
        lastMetered_[i] = Kilowatts(metered_kw[i]);

    attackerSupply_.loadState(reader);
    thermal_.loadState(reader);
    channel_.loadState(reader);
    operator_.loadState(reader);
    policy_->loadState(reader);
    metrics_.loadState(reader);
    // Each count rises at most once per simulated minute, and the slot
    // loop brings the engine's copy in step before the minute ends.
    const auto within_now = [this](std::size_t count) {
        return now_ >= 0 && count <= static_cast<std::uint64_t>(now_);
    };
    if (reader.ok() &&
        (emergenciesSeen_ != operator_.emergenciesDeclared() ||
         outagesSeen_ != operator_.outages() ||
         !within_now(emergenciesSeen_) || !within_now(outagesSeen_))) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "emergency/outage counts inconsistent at minute ", now_,
            ": engine saw ", emergenciesSeen_, "/", outagesSeen_,
            ", operator declared ", operator_.emergenciesDeclared(), "/",
            operator_.outages()));
    }
}

void
Simulation::run(MinuteIndex num_minutes)
{
    ECOLO_ASSERT(num_minutes >= 0, "negative run length");
    telemetry::TraceSpan span("engine.run");
    std::optional<RunTelemetry> stats;
    if (telemetry::enabled())
        stats.emplace();
    RunTelemetry *const instrumented = stats ? &*stats : nullptr;
    const MinuteIndex start = now_;
    for (MinuteIndex i = 0; i < num_minutes; ++i) {
        if (cancel_ && cancel_())
            break;
        stepMinute(instrumented);
    }
    if (stats)
        stats->publish(static_cast<std::uint64_t>(now_ - start));
}

void
Simulation::runDays(double days)
{
    run(static_cast<MinuteIndex>(days * static_cast<double>(
        kMinutesPerDay)));
}

std::unique_ptr<AttackPolicy>
makeRandomPolicy(const SimulationConfig &config, double attack_probability)
{
    return std::make_unique<RandomPolicy>(
        attack_probability, minAttackSoc(config),
        Rng(config.seed ^ 0x7a11ba5eULL));
}

std::unique_ptr<AttackPolicy>
makeMyopicPolicy(const SimulationConfig &config, Kilowatts threshold)
{
    return std::make_unique<MyopicPolicy>(threshold, minAttackSoc(config));
}

std::unique_ptr<ForesightedPolicy>
makeForesightedPolicy(const SimulationConfig &config, double weight,
                      bool warm_start)
{
    ForesightedPolicy::Params params;
    params.weight = weight;
    // T_0 in the reward (Eqn. 2) is the inlet temperature the operator
    // conditions *without* attacks. The matrix model keeps inlets a few
    // tenths of a degree above the set point even at baseline, so measure
    // T_0 slightly above the set point; otherwise every action collects a
    // constant reward offset that drowns the attack/no-attack contrast.
    params.baselineInlet = config.cooling.supplySetPoint +
                           CelsiusDelta(config.foresightedRewardMargin);
    params.capacity = config.capacity;
    params.attackLoad = config.attackLoad;
    params.battery = config.batterySpec;
    params.stateSpace.loadMin = config.capacity * 0.5;
    params.stateSpace.loadMax = config.capacity * 1.08;
    auto policy = std::make_unique<ForesightedPolicy>(
        params, Rng(config.seed ^ 0xf0e51337ULL));
    if (warm_start) {
        policy->warmStart();
        policy->burnInSchedules(14);
    }
    return policy;
}

std::unique_ptr<AttackPolicy>
makeOneShotPolicy(const SimulationConfig &config, Kilowatts threshold,
                  MinuteIndex arm_delay)
{
    (void)config;
    return std::make_unique<OneShotPolicy>(threshold, arm_delay);
}

util::Result<std::unique_ptr<AttackPolicy>>
tryMakePolicyByName(const SimulationConfig &config,
                    const std::string &name, double param)
{
    if (name == "standby")
        return std::unique_ptr<AttackPolicy>(
            std::make_unique<StandbyPolicy>());
    if (name == "random")
        return makeRandomPolicy(config, param);
    if (name == "myopic")
        return makeMyopicPolicy(config, Kilowatts(param));
    if (name == "foresighted")
        return std::unique_ptr<AttackPolicy>(
            makeForesightedPolicy(config, param));
    if (name == "oneshot")
        return makeOneShotPolicy(config, Kilowatts(param), 0);
    return ECOLO_ERROR(util::ErrorCode::ValidationError,
                       "unknown policy '", name,
                       "' (expected "
                       "standby|random|myopic|foresighted|oneshot)");
}

double
defaultPolicyParam(const std::string &name)
{
    if (name == "random")
        return 0.08;
    if (name == "myopic")
        return 7.4;
    if (name == "foresighted")
        return 14.0;
    if (name == "oneshot")
        return 7.0;
    return 0.0;
}

double
minAttackSoc(const SimulationConfig &config)
{
    const double delivered_per_minute = config.attackLoad.value() / 60.0;
    const double stored_needed =
        delivered_per_minute / config.batterySpec.dischargeEfficiency;
    return stored_needed / config.batterySpec.capacity.value();
}

} // namespace ecolo::core
