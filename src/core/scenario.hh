/**
 * @file
 * Scenario files: override a SimulationConfig from key=value text, so
 * experiments can be described declaratively. A file is read with
 * KeyValueConfig::parseFile and applied with applyScenario, which is how
 * the CLI's --scenario and --set load it.
 *
 * Recognized keys (all optional; defaults are Table I):
 *
 *   capacityKw, averageUtilization, seed, traceKind (diurnal|google)
 *   attacker.servers, attacker.subscriptionKw, attacker.attackLoadKw,
 *   attacker.standbyUtilization
 *   battery.capacityKwh, battery.chargeRateKw, battery.dischargeRateKw,
 *   battery.chargeEfficiency, battery.dischargeEfficiency
 *   cooling.capacityKw, cooling.setPointC, cooling.airVolumeM3,
 *   cooling.deratingPerKelvin
 *   protocol.emergencyThresholdC, protocol.sustainMinutes,
 *   protocol.cappingMinutes, protocol.perServerCapKw,
 *   protocol.shutdownThresholdC, protocol.outageRestartMinutes
 *   sidechannel.extraRelativeNoise, sidechannel.jammingNoiseVolts
 *   rl.rewardMargin
 *   trace.baseUtilization, trace.diurnalAmplitude, trace.peakHour
 *   fault.N.type, fault.N.startMinute, fault.N.startDay,
 *   fault.N.durationMinutes, fault.N.magnitude, fault.N.servers,
 *   fault.random.* (fault-injection timeline; see faults/schedule.hh and
 *   docs/faults.md)
 */

#ifndef ECOLO_CORE_SCENARIO_HH
#define ECOLO_CORE_SCENARIO_HH

#include <iosfwd>

#include "core/config.hh"
#include "util/keyvalue.hh"
#include "util/result.hh"

namespace ecolo::core {

/**
 * Apply the recognized keys of a parsed key=value document on top of the
 * given config. Fails with a structured error (ParseError for
 * unparseable/unknown keys, ValidationError when the resulting config is
 * inconsistent) that names the scenario source and line where known;
 * unknown keys are an error unless allow_unknown is set. `fault.*` keys
 * build config.faultSchedule.
 */
util::Result<void> tryApplyScenario(const KeyValueConfig &kv,
                                    SimulationConfig &config,
                                    bool allow_unknown = false);

/** Legacy wrapper around tryApplyScenario; ECOLO_FATAL on any error. */
void applyScenario(const KeyValueConfig &kv, SimulationConfig &config,
                   bool allow_unknown = false);

/** Human-readable dump of a configuration (CLI --describe). */
void describeConfig(std::ostream &os, const SimulationConfig &config);

} // namespace ecolo::core

#endif // ECOLO_CORE_SCENARIO_HH
