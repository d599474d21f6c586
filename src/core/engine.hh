/**
 * @file
 * The discrete-time (1-minute slot) edge-colocation simulation engine.
 *
 * Wires together every substrate: tenant workload traces drive server
 * power; the attacker's policy drives its dual-source power supply; the
 * thermal environment turns actual heat into inlet temperatures; the
 * operator's protocol turns inlet temperatures into capping and outage
 * commands; and the latency model turns capping into tenant performance
 * degradation. One Simulation instance corresponds to one experiment run.
 */

#ifndef ECOLO_CORE_ENGINE_HH
#define ECOLO_CORE_ENGINE_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "battery/power_supply.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "faults/fault.hh"
#include "core/operator.hh"
#include "core/policies.hh"
#include "perf/latency_model.hh"
#include "power/layout.hh"
#include "power/pdu.hh"
#include "power/tenant.hh"
#include "sidechannel/voltage_channel.hh"
#include "thermal/environment.hh"
#include "util/result.hh"
#include "util/rng.hh"

namespace ecolo::core {

/** The phases of one slot, in the order Simulation::stepMinute runs
 * them. Tenants also holds run()'s loop between two slots. */
enum class SlotPhase : std::size_t
{
    Tenants,     //!< faults, traces, caps, power-off, attacker caps
    Observation, //!< benign power through the side channel, inlet probe
    Policy,      //!< learning feedback, day boundary, decide, comply
    Attacker,    //!< the attacker's dual-source supply
    Gather,      //!< per-server heat and metering vectors
    Pdu,         //!< circuit draws and the metered total
    Thermal,     //!< the thermal kernel step
    Operator,    //!< the operator's reaction and its telemetry
    Metrics,     //!< emergency performance, minute record, callback
    Count
};

inline constexpr std::size_t kNumSlotPhases =
    static_cast<std::size_t>(SlotPhase::Count);

/** Lower-case name of a phase ("tenants", "observation", ...). */
const char *slotPhaseName(SlotPhase phase);

/** One configured run of the edge colocation under a given attack policy. */
class Simulation
{
  public:
    using MinuteCallback = std::function<void(const MinuteRecord &)>;

    /**
     * Build the full system. The config seeds all randomness; two runs
     * with the same config and policy behave identically.
     */
    Simulation(SimulationConfig config,
               std::unique_ptr<AttackPolicy> policy);

    /**
     * Advance the simulation by the given number of minutes. With
     * telemetry::enabled() (read once per call) the call is one
     * `engine.run` span, every slot phase is timed, and the call's
     * counts, gauges and phase times are published when it returns:
     * `engine.phase.<phase>_ns` and `engine.phase.slots` among them.
     * Telemetry never moves a result.
     */
    void run(MinuteIndex num_minutes);

    /** Convenience: run whole days. */
    void runDays(double days);

    const SimulationMetrics &metrics() const { return metrics_; }
    const SimulationConfig &config() const { return config_; }
    AttackPolicy &policy() { return *policy_; }
    const AttackPolicy &policy() const { return *policy_; }

    /** Install a per-minute observer (time-series figures). */
    void setMinuteCallback(MinuteCallback callback)
    { callback_ = std::move(callback); }

    /**
     * Install a cooperative cancellation check, polled once per simulated
     * minute before the step. When it returns true, run() stops early
     * (now() tells how far it got); the simulation stays consistent and
     * can be checkpointed or resumed. Unset (the default) costs one
     * branch per minute and leaves trajectories bit-identical.
     */
    using CancelCheck = std::function<bool()>;
    void setCancelCheck(CancelCheck check)
    { cancel_ = std::move(check); }

    /** Current simulated minute. */
    MinuteIndex now() const { return now_; }

    // ---- Introspection for tests and harnesses ----
    const power::Tenant &benignTenant(std::size_t i) const
    { return benignTenants_.at(i); }
    std::size_t numBenignTenants() const { return benignTenants_.size(); }
    const battery::DualSourcePowerSupply &attackerSupply() const
    { return attackerSupply_; }
    const thermal::ThermalEnvironment &thermalEnvironment() const
    { return thermal_; }
    const ColoOperator &coloOperator() const { return operator_; }
    const power::Pdu &pdu() const { return pdu_; }

    /** Per-server heat of the most recent minute (defense harnesses). */
    const std::vector<Kilowatts> &lastServerHeat() const
    { return lastHeat_; }
    /** Per-server metered power of the most recent minute. */
    const std::vector<Kilowatts> &lastServerMetered() const
    { return lastMetered_; }

    /** Faults active during the most recently simulated minute. */
    const faults::ActiveFaults &activeFaults() const { return faultsNow_; }

    /**
     * Serialize the complete mutable state. A Simulation constructed from
     * the same config and policy kind, then restored with loadState,
     * continues bit-identically to the uninterrupted run (learning
     * policies excepted; see AttackPolicy::saveState).
     */
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);

  private:
    /** Thermal environment for the config, built from config.setupCache's
     * shared matrix and factorization. */
    static thermal::ThermalEnvironment
    makeThermalEnvironment(const SimulationConfig &config,
                           const power::DataCenterLayout &layout);

    /** One instrumented run() call's stats (telemetry on only). */
    struct RunTelemetry;

    void buildTenants();
    /** Advance one minute: the engine's only slot loop body. `stats` is
     * null when telemetry is off. */
    void stepMinute(RunTelemetry *stats);
    void applyFaultsForMinute();
    Kilowatts benignActualPower() const;
    AttackObservation makeObservation(bool capping, bool outage,
                                      RunTelemetry *stats);

    SimulationConfig config_;
    power::DataCenterLayout layout_;
    Rng rng_;

    std::vector<power::Tenant> benignTenants_;
    /** Each benign tenant's actual power this minute (set in step 1). */
    std::vector<Kilowatts> tenantPower_;
    power::Tenant attackerTenant_;
    battery::DualSourcePowerSupply attackerSupply_;

    thermal::ThermalEnvironment thermal_;
    sidechannel::VoltageSideChannel channel_;
    perf::LatencyModel latency_;
    power::Pdu pdu_;
    ColoOperator operator_;

    std::unique_ptr<AttackPolicy> policy_;

    OperatorCommand command_;       //!< command in force this minute
    AttackObservation lastObs_;
    AttackAction lastAction_ = AttackAction::Standby;
    bool havePending_ = false;

    /** True when the config carries a non-empty fault schedule; with an
     * empty schedule every fault hook is skipped (bit-identical runs). */
    bool faultsEnabled_ = false;
    faults::ActiveFaults faultsNow_;
    /** Last non-NaN side-channel estimate (sensor-fault fallback). */
    Kilowatts lastValidEstimate_{0.0};

    std::vector<Kilowatts> lastHeat_;
    std::vector<Kilowatts> lastMetered_;

    SimulationMetrics metrics_;
    MinuteCallback callback_;
    CancelCheck cancel_;
    MinuteIndex now_ = 0;
    std::size_t emergenciesSeen_ = 0;
    std::size_t outagesSeen_ = 0;

    // ---- Telemetry-only edge trackers. Deliberately NOT checkpointed:
    // telemetry is excluded from state fingerprints (see
    // telemetry/telemetry.hh), so a resumed run simply re-observes
    // transitions from the resume point onward. Only touched when
    // telemetry::enabled().
    OperatorState prevOpState_ = OperatorState::Normal;
    bool prevAnyCap_ = false;
    bool prevFaultsActive_ = false;
    int prevDegradedTier_ = 0;
    bool batteryDepletedLatched_ = false;
};

/** Factory helpers used across examples and benches. */
std::unique_ptr<AttackPolicy>
makeRandomPolicy(const SimulationConfig &config, double attack_probability);
std::unique_ptr<AttackPolicy>
makeMyopicPolicy(const SimulationConfig &config, Kilowatts threshold);
std::unique_ptr<ForesightedPolicy>
makeForesightedPolicy(const SimulationConfig &config, double weight,
                      bool warm_start = true);
std::unique_ptr<AttackPolicy>
makeOneShotPolicy(const SimulationConfig &config, Kilowatts threshold,
                  MinuteIndex arm_delay);

/**
 * Construct a policy from its CLI/RPC name
 * (standby|random|myopic|foresighted|oneshot). Fails with a
 * ValidationError naming the accepted set on an unknown name. Shared by
 * edgetherm_cli and the serving stack so both speak the same names.
 */
util::Result<std::unique_ptr<AttackPolicy>>
tryMakePolicyByName(const SimulationConfig &config,
                    const std::string &name, double param);

/** The per-policy default parameter (0.0 for standby/unknown names). */
double defaultPolicyParam(const std::string &name);

/** Minimum state of charge that funds one minute of attack. */
double minAttackSoc(const SimulationConfig &config);

} // namespace ecolo::core

#endif // ECOLO_CORE_ENGINE_HH
