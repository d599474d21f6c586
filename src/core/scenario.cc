#include "core/scenario.hh"

#include <ostream>

#include "util/logging.hh"
#include "util/table.hh"

namespace ecolo::core {

util::Result<void>
tryApplyScenario(const KeyValueConfig &kv, SimulationConfig &config,
                 bool allow_unknown)
{
    auto dbl = [&](const char *key, double &target) -> util::Result<void> {
        const auto v = kv.tryGetDouble(key);
        if (!v.ok())
            return v.error();
        if (v.value())
            target = *v.value();
        return {};
    };
    auto kw = [&](const char *key,
                  Kilowatts &target) -> util::Result<void> {
        const auto v = kv.tryGetDouble(key);
        if (!v.ok())
            return v.error();
        if (v.value())
            target = Kilowatts(*v.value());
        return {};
    };
    auto kwh = [&](const char *key,
                   KilowattHours &target) -> util::Result<void> {
        const auto v = kv.tryGetDouble(key);
        if (!v.ok())
            return v.error();
        if (v.value())
            target = KilowattHours(*v.value());
        return {};
    };
    auto deg = [&](const char *key, Celsius &target) -> util::Result<void> {
        const auto v = kv.tryGetDouble(key);
        if (!v.ok())
            return v.error();
        if (v.value())
            target = Celsius(*v.value());
        return {};
    };
    auto mins = [&](const char *key,
                    MinuteIndex &target) -> util::Result<void> {
        const auto v = kv.tryGetInt(key);
        if (!v.ok())
            return v.error();
        if (v.value())
            target = *v.value();
        return {};
    };

    ECOLO_TRY_VOID(kw("capacityKw", config.capacity));
    ECOLO_TRY_VOID(kw("cooling.capacityKw", config.cooling.capacity));
    ECOLO_TRY_VOID(dbl("averageUtilization", config.averageUtilization));
    {
        const auto v = kv.tryGetInt("seed");
        if (!v.ok())
            return v.error();
        if (v.value())
            config.seed = static_cast<std::uint64_t>(*v.value());
    }
    if (const auto v = kv.getString("traceKind")) {
        if (*v == "diurnal")
            config.traceKind = TraceKind::Diurnal;
        else if (*v == "google")
            config.traceKind = TraceKind::GoogleStyle;
        else if (*v == "request")
            config.traceKind = TraceKind::RequestLevel;
        else
            return ECOLO_ERROR(util::ErrorCode::ParseError,
                               kv.locate("traceKind"),
                               ": unknown traceKind '", *v,
                               "' (expected diurnal|google|request)");
    }

    {
        const auto v = kv.tryGetInt("attacker.servers");
        if (!v.ok())
            return v.error();
        if (v.value())
            config.attackerNumServers =
                static_cast<std::size_t>(*v.value());
    }
    ECOLO_TRY_VOID(kw("attacker.subscriptionKw",
                      config.attackerSubscription));
    ECOLO_TRY_VOID(kw("attacker.attackLoadKw", config.attackLoad));
    ECOLO_TRY_VOID(dbl("attacker.standbyUtilization",
                       config.attackerStandbyUtilization));

    ECOLO_TRY_VOID(kwh("battery.capacityKwh",
                       config.batterySpec.capacity));
    ECOLO_TRY_VOID(kw("battery.chargeRateKw",
                      config.batterySpec.maxChargeRate));
    ECOLO_TRY_VOID(kw("battery.dischargeRateKw",
                      config.batterySpec.maxDischargeRate));
    ECOLO_TRY_VOID(dbl("battery.chargeEfficiency",
                       config.batterySpec.chargeEfficiency));
    ECOLO_TRY_VOID(dbl("battery.dischargeEfficiency",
                       config.batterySpec.dischargeEfficiency));

    ECOLO_TRY_VOID(deg("cooling.setPointC",
                       config.cooling.supplySetPoint));
    ECOLO_TRY_VOID(dbl("cooling.airVolumeM3", config.cooling.airVolume));
    ECOLO_TRY_VOID(dbl("cooling.deratingPerKelvin",
                       config.cooling.capacityDeratingPerKelvin));

    ECOLO_TRY_VOID(deg("protocol.emergencyThresholdC",
                       config.emergencyThreshold));
    ECOLO_TRY_VOID(mins("protocol.sustainMinutes",
                        config.emergencySustainMinutes));
    ECOLO_TRY_VOID(mins("protocol.cappingMinutes", config.cappingMinutes));
    ECOLO_TRY_VOID(kw("protocol.perServerCapKw", config.perServerCap));
    ECOLO_TRY_VOID(deg("protocol.shutdownThresholdC",
                       config.shutdownThreshold));
    ECOLO_TRY_VOID(mins("protocol.outageRestartMinutes",
                        config.outageRestartMinutes));

    ECOLO_TRY_VOID(dbl("sidechannel.extraRelativeNoise",
                       config.sideChannel.extraRelativeNoise));
    ECOLO_TRY_VOID(dbl("sidechannel.jammingNoiseVolts",
                       config.sideChannel.jammingNoiseVolts));

    ECOLO_TRY_VOID(dbl("rl.rewardMargin",
                       config.foresightedRewardMargin));

    if (const auto v = kv.getString("thermal.kernel")) {
        thermal::KernelMode mode;
        if (!thermal::parseKernelMode(*v, mode)) {
            return ECOLO_ERROR(
                util::ErrorCode::ParseError, kv.locate("thermal.kernel"),
                ": unknown thermal.kernel '", *v,
                "' (expected auto|dense)");
        }
        config.thermalMode = mode;
    }

    ECOLO_TRY_VOID(dbl("trace.baseUtilization",
                       config.diurnalParams.baseUtilization));
    ECOLO_TRY_VOID(dbl("trace.diurnalAmplitude",
                       config.diurnalParams.diurnalAmplitude));
    ECOLO_TRY_VOID(dbl("trace.peakHour", config.diurnalParams.peakHour));

    // Fault-injection timeline. Consumes every fault.* key, so it must
    // run before the unknown-key sweep below.
    {
        auto schedule = faults::FaultSchedule::fromKeyValue(kv);
        if (!schedule.ok())
            return schedule.error();
        config.faultSchedule = schedule.take();
    }

    if (!allow_unknown) {
        const auto unknown = kv.unconsumedKeys();
        if (!unknown.empty()) {
            std::string joined;
            for (const auto &key : unknown)
                joined += (joined.empty() ? "" : ", ") + key;
            return ECOLO_ERROR(util::ErrorCode::ParseError,
                               "unknown scenario key(s) in ",
                               kv.sourceName(), ": ", joined);
        }
    }
    return config.validated();
}

void
applyScenario(const KeyValueConfig &kv, SimulationConfig &config,
              bool allow_unknown)
{
    if (const auto result = tryApplyScenario(kv, config, allow_unknown);
        !result.ok())
        ECOLO_FATAL(result.error().message);
}

void
describeConfig(std::ostream &os, const SimulationConfig &config)
{
    TextTable table({"parameter", "value"});
    table.addRow("capacity (kW)", fixed(config.capacity.value(), 2));
    table.addRow("benign tenants", config.numBenignTenants);
    table.addRow("servers (total / attacker)",
                 std::to_string(config.numServers()) + " / " +
                     std::to_string(config.attackerNumServers));
    table.addRow("attacker subscription (kW)",
                 fixed(config.attackerSubscription.value(), 2));
    table.addRow("attack load from battery (kW)",
                 fixed(config.attackLoad.value(), 2));
    table.addRow("battery (kWh / charge kW / discharge kW)",
                 fixed(config.batterySpec.capacity.value(), 2) + " / " +
                     fixed(config.batterySpec.maxChargeRate.value(), 2) +
                     " / " +
                     fixed(config.batterySpec.maxDischargeRate.value(),
                           2));
    table.addRow("cooling capacity (kW)",
                 fixed(config.cooling.capacity.value(), 2));
    table.addRow("supply set point (C)",
                 fixed(config.cooling.supplySetPoint.value(), 1));
    table.addRow("emergency threshold (C, sustained min)",
                 fixed(config.emergencyThreshold.value(), 1) + ", " +
                     std::to_string(config.emergencySustainMinutes));
    table.addRow("per-server cap (kW) / capping minutes",
                 fixed(config.perServerCap.value(), 2) + " / " +
                     std::to_string(config.cappingMinutes));
    table.addRow("shutdown threshold (C)",
                 fixed(config.shutdownThreshold.value(), 1));
    table.addRow("average utilization",
                 fixed(config.averageUtilization, 2));
    table.addRow("trace",
                 config.traceKind == TraceKind::Diurnal ? "diurnal"
                 : config.traceKind == TraceKind::GoogleStyle
                     ? "google-style"
                     : "request-level");
    table.addRow("thermal kernel",
                 thermal::kernelModeName(config.thermalMode));
    table.addRow("seed", config.seed);
    table.print(os);
}

} // namespace ecolo::core
