/**
 * @file
 * SimulationConfig: every knob of the edge-colocation simulation, with
 * defaults matching Table I of the paper (8 kW capacity, 4 tenants,
 * 40 servers in 2 racks, 0.8 kW attacker subscription, 0.2 kWh battery,
 * 1 kW attack load, 0.2 kW charge rate, 32 C emergency threshold,
 * gamma = 0.99, delta(t) = 1/t^0.85).
 */

#ifndef ECOLO_CORE_CONFIG_HH
#define ECOLO_CORE_CONFIG_HH

#include <cstdint>
#include <memory>

#include "battery/battery.hh"
#include "faults/schedule.hh"
#include "perf/latency_model.hh"
#include "power/layout.hh"
#include "power/server.hh"
#include "sidechannel/voltage_channel.hh"
#include "trace/generators.hh"
#include "thermal/cooling.hh"
#include "thermal/heat_matrix.hh"
#include "util/result.hh"
#include "util/sim_time.hh"
#include "util/units.hh"

namespace ecolo::core {

class SetupCache;

/** Which synthetic workload drives the benign tenants. */
enum class TraceKind
{
    Diurnal,      //!< default trace (Facebook/Baidu-like, Fig. 6(b))
    GoogleStyle,  //!< alternate trace (Google-cluster-like, Fig. 13(a))
    RequestLevel, //!< Poisson request-level pipeline (paper Sec. V-A)
};

/** Full simulation configuration. */
struct SimulationConfig
{
    // ---- Data center (Table I) ----
    Kilowatts capacity{8.0};
    std::size_t numBenignTenants = 3;
    power::DataCenterLayout::Params layout{};  //!< 2 racks x 20 servers
    power::ServerSpec serverSpec{Kilowatts(0.06), Kilowatts(0.20)};

    // ---- Attacker ----
    std::size_t attackerNumServers = 4;
    Kilowatts attackerSubscription{0.8};
    /** Battery-supplied heat injected during an attack (Table I: 1 kW). */
    Kilowatts attackLoad{1.0};
    battery::BatterySpec batterySpec{
        KilowattHours(0.2), Kilowatts(0.2), Kilowatts(1.0), 0.90, 0.95};
    /** Utilization of the attacker's dummy workloads outside attacks. */
    double attackerStandbyUtilization = 0.15;
    /**
     * Margin added to the supply set point when forming T_0 in the
     * Foresighted reward (Eqn. 2): rises below set point + margin earn
     * nothing. Models the operator-conditioned baseline band; also sets
     * the learner's signal-to-noise (see DESIGN.md).
     */
    double foresightedRewardMargin = 0.5;

    // ---- Thermal ----
    thermal::CoolingParams cooling{};
    thermal::HeatDistributionMatrix::AnalyticParams matrixParams{};
    std::size_t matrixHorizonMinutes = 10;
    /**
     * Rise-computation kernel, Auto or Dense. Auto runs the streaming
     * recurrence when the factorization and exponential-mode fit are
     * within the factorization tolerances (the analytic matrix fits
     * exactly, so campaigns stream) and falls back to the dense
     * reference convolution, with a warning, otherwise. Dense forces
     * the reference. Scenario key: thermal.kernel = auto|dense.
     */
    thermal::KernelMode thermalMode = thermal::KernelMode::Auto;
    /** Truncation and fit-residual tolerances gating Auto's streaming
     * kernel (no scenario key). */
    thermal::FactorizationOptions factorization{};

    // ---- Operator / emergency protocol ----
    Celsius emergencyThreshold{32.0};
    MinuteIndex emergencySustainMinutes = 2;
    MinuteIndex cappingMinutes = 5;
    Kilowatts perServerCap{0.12}; //!< 60% of the 200 W server capacity
    /** Use runtime-coordinated (overshoot-scaled) capping depth. */
    bool adaptiveCapping = false;
    Celsius shutdownThreshold{45.0};
    MinuteIndex outageRestartMinutes = 60;
    /**
     * Std-dev (deg C) of the operator's inlet-temperature sensing noise.
     * Non-zero values produce the occasional no-attack thermal
     * emergencies real colocations see (Section VII-B), which the SLA
     * statistics monitor must discriminate from attacks. Default 0 keeps
     * the paper's idealized protocol.
     */
    double operatorSensorNoise = 0.0;

    // ---- Workload ----
    TraceKind traceKind = TraceKind::Diurnal;
    double averageUtilization = 0.75; //!< of the data center capacity
    /** Shape of the default trace (per-tenant jitter applied on top). */
    trace::DiurnalTraceGenerator::Params diurnalParams{};
    /** Shape of the alternate trace. */
    trace::GoogleStyleTraceGenerator::Params googleParams{};

    // ---- Side channel & performance ----
    sidechannel::SideChannelParams sideChannel{};
    perf::LatencyModelParams latency{};

    // ---- Fault injection (robustness experiments) ----
    /**
     * Deterministic timeline of injected faults (empty by default: runs
     * with an empty schedule are bit-identical to builds without the
     * fault subsystem). Populated from `fault.*` scenario keys or
     * programmatically; see faults/schedule.hh and docs/faults.md.
     */
    faults::FaultSchedule faultSchedule{};

    // ---- Reproducibility ----
    std::uint64_t seed = 42;

    // ---- Campaign acceleration ----
    /**
     * Optional cache shared by campaign members (see core/setup_cache.hh):
     * simulations constructed with the same cache reuse generated benign
     * trace sets, the mean-power scale factor, the analytic heat matrix,
     * and its temporal factorization instead of recomputing them. Purely
     * a constructor-time accelerator -- behavior is bit-identical with or
     * without it (every cached value is a deterministic function of the
     * other config fields that key it). When null, the Simulation
     * constructor installs a private cache. Never serialized.
     */
    std::shared_ptr<SetupCache> setupCache{};

    /** Total number of servers (benign + attacker). */
    std::size_t numServers() const
    { return layout.numRacks * layout.serversPerRack; }

    std::size_t numBenignServers() const
    { return numServers() - attackerNumServers; }

    /** Per-benign-tenant server count (must divide evenly). */
    std::size_t serversPerBenignTenant() const
    { return numBenignServers() / numBenignTenants; }

    /** Per-benign-tenant subscription. */
    Kilowatts benignSubscription() const
    {
        return Kilowatts((capacity - attackerSubscription).value() /
                         static_cast<double>(numBenignTenants));
    }

    /**
     * Full consistency check: structural constraints (server/tenant
     * divisibility, threshold ordering) plus value sanity -- every
     * physical quantity must be finite, efficiencies in (0, 1], air
     * volume and rates positive. Returns a ValidationError naming the
     * offending parameter, its value, and the accepted range.
     */
    util::Result<void> validated() const;

    /** Abort (via ECOLO_FATAL) if the configuration is inconsistent. */
    void validate() const;

    /** The paper's default 8 kW / 40-server configuration. */
    static SimulationConfig paperDefault();

    /**
     * The scaled-down 14-server / 3 kW prototype from the paper's
     * validation and appendix experiments.
     */
    static SimulationConfig prototypeScale();
};

} // namespace ecolo::core

#endif // ECOLO_CORE_CONFIG_HH
