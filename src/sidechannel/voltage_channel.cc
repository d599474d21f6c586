#include "sidechannel/voltage_channel.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace ecolo::sidechannel {

VoltageSideChannel::VoltageSideChannel(SideChannelParams params, Rng rng)
    : params_(params), rng_(rng),
      calibrationBias_(rng_.normal(0.0, params.calibrationErrorStd))
{
    ECOLO_ASSERT(params_.rippleGainVoltsPerKw > 0.0,
                 "ripple gain must be positive");
}

VoltageSideChannel::Gains
VoltageSideChannel::gains() const
{
    // The attacker's calibration error perturbs the gain it *believes*
    // in; the physical ripple follows the true one.
    Gains g;
    g.believed = params_.rippleGainVoltsPerKw * (1.0 + calibrationBias_);
    g.noiseRms = std::sqrt(
        params_.adcNoiseVolts * params_.adcNoiseVolts +
        params_.jammingNoiseVolts * params_.jammingNoiseVolts);
    return g;
}

double
VoltageSideChannel::drawEstimate(double true_kw, const Gains &g)
{
    // Forward path: the physical ripple amplitude on the bus.
    const double amplitude = params_.baselineRippleVolts +
                             params_.rippleGainVoltsPerKw * true_kw +
                             rng_.normal(0.0, g.noiseRms);

    // Inverse path: the attacker's estimator.
    double estimate = (amplitude - params_.baselineRippleVolts) / g.believed;
    if (params_.extraRelativeNoise > 0.0)
        estimate += true_kw * rng_.normal(0.0, params_.extraRelativeNoise);
    return std::max(0.0, estimate);
}

Kilowatts
VoltageSideChannel::estimateTotalLoad(Kilowatts true_total)
{
    ECOLO_ASSERT(true_total.value() >= 0.0, "negative true load");

    // Faulted modes return before any RNG draw (see SensorFaultMode).
    if (faultMode_ == SensorFaultMode::Dropout ||
        faultMode_ == SensorFaultMode::Nan) {
        lastRelativeError_ = std::numeric_limits<double>::quiet_NaN();
        return Kilowatts(std::numeric_limits<double>::quiet_NaN());
    }
    if (faultMode_ == SensorFaultMode::Stuck) {
        const double est = lastHealthyEstimate_.value();
        lastRelativeError_ =
            true_total.value() > 1e-9
                ? (est - true_total.value()) / true_total.value()
                : 0.0;
        return lastHealthyEstimate_;
    }

    const double estimate = drawEstimate(true_total.value(), gains());
    lastRelativeError_ =
        true_total.value() > 1e-9
            ? (estimate - true_total.value()) / true_total.value()
            : 0.0;
    lastHealthyEstimate_ = Kilowatts(estimate);
    return Kilowatts(estimate);
}

Kilowatts
VoltageSideChannel::estimateAveraged(Kilowatts true_total, int samples)
{
    // Faulted modes draw zero samples: a wedged DAQ produces no fresh
    // observations to average, and the RNG stream must not advance.
    if (faultMode_ != SensorFaultMode::Healthy)
        return estimateTotalLoad(true_total);

    // The same draws as `samples` estimateTotalLoad calls, without their
    // per-sample error and last-estimate stores, which the mean's replace.
    ECOLO_ASSERT(true_total.value() >= 0.0, "negative true load");
    samples = std::max(1, samples);
    const Gains g = gains();
    double sum_kw = 0.0;
    for (int k = 0; k < samples; ++k)
        sum_kw += drawEstimate(true_total.value(), g);
    const double mean_kw = sum_kw / samples;
    lastRelativeError_ =
        true_total.value() > 1e-9
            ? (mean_kw - true_total.value()) / true_total.value()
            : 0.0;
    lastHealthyEstimate_ = Kilowatts(mean_kw);
    return Kilowatts(mean_kw);
}

void
VoltageSideChannel::saveState(util::StateWriter &writer) const
{
    writer.tag("VCHN");
    rng_.saveState(writer);
    writer.f64(calibrationBias_);
    writer.f64(lastRelativeError_);
    writer.f64(lastHealthyEstimate_.value());
    writer.u32(static_cast<std::uint32_t>(faultMode_));
}

void
VoltageSideChannel::loadState(util::StateReader &reader)
{
    reader.tag("VCHN");
    rng_.loadState(reader);
    calibrationBias_ = reader.f64();
    lastRelativeError_ = reader.f64();
    lastHealthyEstimate_ = Kilowatts(reader.f64());
    faultMode_ = static_cast<SensorFaultMode>(reader.u32());
}

} // namespace ecolo::sidechannel
