#include "core/config.hh"

#include <cmath>

#include "util/logging.hh"

namespace ecolo::core {

namespace {

using util::ErrorCode;
using util::Result;

/** NaN/inf guard with the parameter name in the message. */
Result<void>
requireFinite(double value, const char *name)
{
    if (!std::isfinite(value)) {
        return ECOLO_ERROR(ErrorCode::ValidationError, name,
                           " must be a finite number, got ", value,
                           " (check the scenario file for NaN/inf values)");
    }
    return {};
}

Result<void>
requirePositive(double value, const char *name)
{
    ECOLO_TRY_VOID(requireFinite(value, name));
    if (value <= 0.0) {
        return ECOLO_ERROR(ErrorCode::ValidationError, name,
                           " must be positive, got ", value);
    }
    return {};
}

Result<void>
requireNonNegative(double value, const char *name)
{
    ECOLO_TRY_VOID(requireFinite(value, name));
    if (value < 0.0) {
        return ECOLO_ERROR(ErrorCode::ValidationError, name,
                           " must be non-negative, got ", value);
    }
    return {};
}

/** Efficiencies and similar fractions: (0, 1]. */
Result<void>
requireUnitFraction(double value, const char *name)
{
    ECOLO_TRY_VOID(requireFinite(value, name));
    if (value <= 0.0 || value > 1.0) {
        return ECOLO_ERROR(ErrorCode::ValidationError, name,
                           " must be in (0, 1], got ", value);
    }
    return {};
}

} // namespace

util::Result<void>
SimulationConfig::validated() const
{
    // ---- Value sanity: finite, signs, ranges ----
    ECOLO_TRY_VOID(requirePositive(capacity.value(), "capacityKw"));
    ECOLO_TRY_VOID(requirePositive(attackLoad.value(),
                                   "attacker.attackLoadKw"));
    ECOLO_TRY_VOID(requireFinite(attackerSubscription.value(),
                                 "attacker.subscriptionKw"));
    ECOLO_TRY_VOID(requireUnitFraction(attackerStandbyUtilization,
                                       "attacker.standbyUtilization"));
    ECOLO_TRY_VOID(requirePositive(batterySpec.capacity.value(),
                                   "battery.capacityKwh"));
    ECOLO_TRY_VOID(requirePositive(batterySpec.maxChargeRate.value(),
                                   "battery.chargeRateKw"));
    ECOLO_TRY_VOID(requirePositive(batterySpec.maxDischargeRate.value(),
                                   "battery.dischargeRateKw"));
    ECOLO_TRY_VOID(requireUnitFraction(batterySpec.chargeEfficiency,
                                       "battery.chargeEfficiency"));
    ECOLO_TRY_VOID(requireUnitFraction(batterySpec.dischargeEfficiency,
                                       "battery.dischargeEfficiency"));
    ECOLO_TRY_VOID(requirePositive(cooling.capacity.value(),
                                   "cooling.capacityKw"));
    ECOLO_TRY_VOID(requirePositive(cooling.airVolume,
                                   "cooling.airVolumeM3"));
    ECOLO_TRY_VOID(requireFinite(cooling.supplySetPoint.value(),
                                 "cooling.setPointC"));
    ECOLO_TRY_VOID(requireNonNegative(cooling.capacityDeratingPerKelvin,
                                      "cooling.deratingPerKelvin"));
    ECOLO_TRY_VOID(requireNonNegative(serverSpec.idlePower.value(),
                                      "server idle power"));
    ECOLO_TRY_VOID(requirePositive(serverSpec.peakPower.value(),
                                   "server peak power"));
    ECOLO_TRY_VOID(requirePositive(perServerCap.value(),
                                   "protocol.perServerCapKw"));
    ECOLO_TRY_VOID(requireFinite(emergencyThreshold.value(),
                                 "protocol.emergencyThresholdC"));
    ECOLO_TRY_VOID(requireFinite(shutdownThreshold.value(),
                                 "protocol.shutdownThresholdC"));
    ECOLO_TRY_VOID(requireNonNegative(operatorSensorNoise,
                                      "operator sensor noise"));
    if (serverSpec.peakPower.value() <= serverSpec.idlePower.value()) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "server peak power (",
                           serverSpec.peakPower.value(),
                           " kW) must exceed idle power (",
                           serverSpec.idlePower.value(), " kW)");
    }
    if (outageRestartMinutes < 1) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "protocol.outageRestartMinutes must be at "
                           "least 1, got ",
                           outageRestartMinutes);
    }

    // ---- Structural constraints ----
    if (numBenignTenants == 0) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "need at least one benign tenant");
    }
    if (attackerNumServers == 0 || attackerNumServers >= numServers()) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "attacker server count out of range: ",
                           attackerNumServers, " of ", numServers());
    }
    if (numBenignServers() % numBenignTenants != 0) {
        return ECOLO_ERROR(ErrorCode::ValidationError, "benign servers (",
                           numBenignServers(),
                           ") must divide evenly among ", numBenignTenants,
                           " tenants");
    }
    if (attackerSubscription.value() <= 0.0 ||
        attackerSubscription >= capacity) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "attacker subscription out of range: ",
                           attackerSubscription.value(),
                           " kW must lie strictly between 0 and the ",
                           capacity.value(), " kW capacity");
    }
    if (batterySpec.maxDischargeRate < attackLoad) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "battery discharge rate (",
                           batterySpec.maxDischargeRate.value(),
                           " kW) cannot sustain the attack load (",
                           attackLoad.value(), " kW)");
    }
    if (emergencyThreshold >= shutdownThreshold) {
        return ECOLO_ERROR(
            ErrorCode::ValidationError,
            "emergency threshold must be below shutdown threshold (got ",
            emergencyThreshold.value(), " C vs ",
            shutdownThreshold.value(), " C)");
    }
    if (cooling.supplySetPoint >= emergencyThreshold) {
        return ECOLO_ERROR(
            ErrorCode::ValidationError,
            "supply set point must be below emergency threshold (got ",
            cooling.supplySetPoint.value(), " C vs ",
            emergencyThreshold.value(), " C)");
    }
    if (perServerCap >= serverSpec.peakPower) {
        return ECOLO_ERROR(
            ErrorCode::ValidationError,
            "emergency cap must be below server peak power (got ",
            perServerCap.value(), " kW vs ",
            serverSpec.peakPower.value(), " kW)");
    }
    if (!std::isfinite(averageUtilization) || averageUtilization <= 0.0 ||
        averageUtilization > 1.0) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "average utilization out of (0,1]: got ",
                           averageUtilization);
    }
    if (emergencySustainMinutes < 1 || cappingMinutes < 1) {
        return ECOLO_ERROR(ErrorCode::ValidationError,
                           "protocol durations must be at least one "
                           "minute (sustain ",
                           emergencySustainMinutes, ", capping ",
                           cappingMinutes, ")");
    }
    return {};
}

void
SimulationConfig::validate() const
{
    if (const auto result = validated(); !result.ok())
        ECOLO_FATAL(result.error().message);
}

SimulationConfig
SimulationConfig::paperDefault()
{
    SimulationConfig config;
    // All members default to Table I already; spelled out here for the two
    // subsystems whose defaults serve other scales as well.
    config.cooling.capacity = config.capacity;
    config.cooling.supplySetPoint = Celsius(27.0);
    config.validate();
    return config;
}

SimulationConfig
SimulationConfig::prototypeScale()
{
    SimulationConfig config;
    config.capacity = Kilowatts(3.0);
    config.layout.numRacks = 1;
    config.layout.serversPerRack = 14;
    config.layout.containerLength = 4.5;
    config.layout.containerWidth = 3.0;
    config.layout.containerHeight = 2.6;
    config.numBenignTenants = 2;
    config.attackerNumServers = 2;
    config.attackerSubscription = Kilowatts(0.4);
    config.attackLoad = Kilowatts(1.5); // the appendix's 1.5 kW overload
    config.batterySpec.capacity = KilowattHours(0.3);
    config.batterySpec.maxDischargeRate = Kilowatts(1.5);
    config.cooling.capacity = Kilowatts(3.0);
    // The paper's sealed test room is "comparable dimension to an edge
    // data center": ~26 m^3 of air.
    config.cooling.airVolume = 26.0;
    config.validate();
    return config;
}

} // namespace ecolo::core
