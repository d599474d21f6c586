#include "core/operator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ecolo::core {

const char *
toString(OperatorState state)
{
    switch (state) {
      case OperatorState::Normal:
        return "normal";
      case OperatorState::Pending:
        return "pending";
      case OperatorState::Emergency:
        return "emergency";
      case OperatorState::Outage:
        return "outage";
    }
    return "unknown";
}

ColoOperator::ColoOperator(Params params) : params_(params)
{
    ECOLO_ASSERT(params_.sustainMinutes >= 1 && params_.cappingMinutes >= 1,
                 "protocol durations must be at least one minute");
    ECOLO_ASSERT(params_.emergencyThreshold < params_.shutdownThreshold,
                 "emergency threshold must be below shutdown threshold");
}

OperatorCommand
ColoOperator::observeMinute(Celsius max_inlet)
{
    return observeMinute(max_inlet, DegradedContext{});
}

OperatorCommand
ColoOperator::observeMinute(Celsius sensed, const DegradedContext &ctx)
{
    // Sensor fallback: on an invalid/NaN reading, hold the last good
    // value so the protocol keeps running instead of comparing against
    // garbage (every comparison with NaN is false, which would silently
    // disable the entire emergency protocol).
    Celsius max_inlet = sensed;
    if (!ctx.sensorValid || std::isnan(sensed.value())) {
        ++blindMinutes_;
        max_inlet = lastGoodInlet_;
    } else {
        blindMinutes_ = 0;
        lastGoodInlet_ = sensed;
    }

    // The shutdown threshold overrides everything: permanent-damage
    // protection trips regardless of protocol state.
    if (state_ != OperatorState::Outage &&
        max_inlet >= params_.shutdownThreshold) {
        state_ = OperatorState::Outage;
        restartLeft_ = params_.outageRestartMinutes;
        ++outages_;
    }

    switch (state_) {
      case OperatorState::Outage:
        ++outageMinutes_;
        if (--restartLeft_ <= 0) {
            state_ = OperatorState::Normal;
            sustainCounter_ = 0;
            cappingLeft_ = 0;
        }
        break;

      case OperatorState::Emergency:
        ++emergencyMinutes_;
        if (--cappingLeft_ <= 0) {
            state_ = OperatorState::Normal;
            sustainCounter_ = 0;
        }
        break;

      case OperatorState::Normal:
      case OperatorState::Pending:
        if (max_inlet > params_.emergencyThreshold) {
            ++sustainCounter_;
            state_ = OperatorState::Pending;
            if (sustainCounter_ >= params_.sustainMinutes) {
                state_ = OperatorState::Emergency;
                cappingLeft_ = params_.cappingMinutes;
                ++emergencies_;
                ++emergencyMinutes_;
                --cappingLeft_;
                if (params_.adaptiveCapping) {
                    // Scale the cap depth with the declaration overshoot.
                    const double overshoot = std::clamp(
                        (max_inlet - params_.emergencyThreshold).value() /
                            params_.adaptiveFullScaleKelvin,
                        0.0, 1.0);
                    activeCapLevel_ =
                        params_.adaptiveMaxCap +
                        (params_.adaptiveMinCap - params_.adaptiveMaxCap) *
                            overshoot;
                }
            }
        } else {
            sustainCounter_ = 0;
            state_ = OperatorState::Normal;
        }
        break;
    }

    OperatorCommand command;
    command.capServers = state_ == OperatorState::Emergency;
    command.outage = state_ == OperatorState::Outage;
    if (command.capServers && params_.adaptiveCapping)
        command.capLevel = activeCapLevel_;

    // ---- Degraded-mode overlay: graceful responses to injected faults.
    // With a healthy context every branch below is skipped, so the
    // fault-free path stays bit-identical.
    if (state_ != OperatorState::Outage) {
        const double factor =
            std::clamp(ctx.coolingCapacityFactor, 0.0, 1.0);
        const double severity = 1.0 - factor;

        if (factor < 1.0) {
            // Tier 1: raise the CRAC set point, trading inlet margin for
            // removal capacity; ramps to the maximum as capacity falls to
            // the shed threshold.
            const double span =
                std::max(1e-9, 1.0 - params_.derateShedThreshold);
            const double ramp = std::min(1.0, severity / span);
            command.setPointRaise =
                CelsiusDelta(params_.maxSetPointRaise.value() * ramp);
            command.degraded = true;
        }
        if (factor < params_.derateCapThreshold) {
            // Tier 2: preventive load capping *before* the emergency
            // protocol has to trip -- interpolate from the gentlest to the
            // hardest cap as the derating deepens.
            const double span = std::max(
                1e-9,
                params_.derateCapThreshold - params_.derateShedThreshold);
            const double depth = std::clamp(
                (params_.derateCapThreshold - factor) / span, 0.0, 1.0);
            command.preventiveCapLevel =
                params_.adaptiveMaxCap +
                (params_.adaptiveMinCap - params_.adaptiveMaxCap) * depth;
            command.degraded = true;
        }
        if (factor < params_.derateShedThreshold) {
            // Tier 3: partial shutdown -- shed benign load outright when
            // capping alone cannot fit the site under the surviving
            // capacity.
            command.shedFraction = std::min(
                params_.maxShedFraction,
                (params_.derateShedThreshold - factor) /
                    std::max(1e-9, params_.derateShedThreshold));
            command.degraded = true;
        }
        if (blindMinutes_ > params_.sensorBlindTolerance) {
            // Flying blind: assume the worst and cap preventively at the
            // hardest of the applicable levels.
            const Kilowatts blind_cap = params_.sensorBlindCap;
            command.preventiveCapLevel =
                command.preventiveCapLevel
                    ? std::min(*command.preventiveCapLevel, blind_cap)
                    : blind_cap;
            command.degraded = true;
        }
    }
    if (command.degraded)
        ++degradedMinutes_;
    return command;
}

void
ColoOperator::reset()
{
    state_ = OperatorState::Normal;
    sustainCounter_ = 0;
    cappingLeft_ = 0;
    restartLeft_ = 0;
    emergencies_ = 0;
    outages_ = 0;
    emergencyMinutes_ = 0;
    outageMinutes_ = 0;
    degradedMinutes_ = 0;
    blindMinutes_ = 0;
    lastGoodInlet_ = Celsius(27.0);
}

void
ColoOperator::saveState(util::StateWriter &writer) const
{
    writer.tag("OPER");
    writer.u32(static_cast<std::uint32_t>(state_));
    writer.i64(sustainCounter_);
    writer.i64(cappingLeft_);
    writer.i64(restartLeft_);
    writer.u64(emergencies_);
    writer.u64(outages_);
    writer.f64(activeCapLevel_.value());
    writer.i64(emergencyMinutes_);
    writer.i64(outageMinutes_);
    writer.i64(degradedMinutes_);
    writer.i64(blindMinutes_);
    writer.f64(lastGoodInlet_.value());
}

void
ColoOperator::loadState(util::StateReader &reader)
{
    reader.tag("OPER");
    const std::uint32_t state = reader.u32();
    const MinuteIndex sustain = reader.i64();
    const MinuteIndex capping_left = reader.i64();
    const MinuteIndex restart_left = reader.i64();
    const std::uint64_t emergencies = reader.u64();
    const std::uint64_t outages = reader.u64();
    const double cap_level = reader.f64();
    const MinuteIndex emergency_minutes = reader.i64();
    const MinuteIndex outage_minutes = reader.i64();
    const MinuteIndex degraded_minutes = reader.i64();
    const MinuteIndex blind_minutes = reader.i64();
    const double last_inlet = reader.f64();
    if (!reader.ok())
        return;
    // A countdown fires at <= 0 and may rest at -1 after a one-minute
    // window; every other counter only grows from 0.
    if (state > static_cast<std::uint32_t>(OperatorState::Outage) ||
        sustain < 0 || capping_left < -1 || restart_left < -1 ||
        emergency_minutes < 0 || outage_minutes < 0 ||
        degraded_minutes < 0 || blind_minutes < 0 ||
        !std::isfinite(cap_level) || !std::isfinite(last_inlet)) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "operator state out of range: state ", state, ", sustain ",
            sustain, ", capping left ", capping_left, ", restart left ",
            restart_left, ", minutes ", emergency_minutes, "/",
            outage_minutes, "/", degraded_minutes, "/", blind_minutes,
            ", cap level ", cap_level, " kW, last inlet ", last_inlet,
            " C"));
        return;
    }
    state_ = static_cast<OperatorState>(state);
    sustainCounter_ = sustain;
    cappingLeft_ = capping_left;
    restartLeft_ = restart_left;
    emergencies_ = static_cast<std::size_t>(emergencies);
    outages_ = static_cast<std::size_t>(outages);
    activeCapLevel_ = Kilowatts(cap_level);
    emergencyMinutes_ = emergency_minutes;
    outageMinutes_ = outage_minutes;
    degradedMinutes_ = degraded_minutes;
    blindMinutes_ = blind_minutes;
    lastGoodInlet_ = Celsius(last_inlet);
}

} // namespace ecolo::core
