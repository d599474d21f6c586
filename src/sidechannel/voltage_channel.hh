/**
 * @file
 * The voltage side channel the attacker uses to time attacks.
 *
 * Following Islam & Ren (CCS'18), every server's power factor correction
 * (PFC) circuit superimposes high-frequency voltage ripples on the shared
 * PDU bus, with ripple amplitude strongly correlated with server load; the
 * IR drop along the shared cable adds a DC component proportional to total
 * current. An attacker sampling its own input voltage with an ADC can
 * therefore estimate the *aggregate* PDU load with a few-percent error
 * (the paper's Fig. 5(b)).
 *
 * The paper measured this channel with an NI DAQ on a real rack; we
 * synthesize the signal chain instead: ripple amplitude = baseline +
 * gain * total_load, corrupted by a one-time calibration bias, per-sample
 * ADC noise, and (optionally) operator jamming noise, then inverted by the
 * attacker's calibrated estimator. Parameters are chosen so the error
 * distribution matches Fig. 5(b) (most mass within about +/-2%).
 */

#ifndef ECOLO_SIDECHANNEL_VOLTAGE_CHANNEL_HH
#define ECOLO_SIDECHANNEL_VOLTAGE_CHANNEL_HH

#include <vector>

#include "util/rng.hh"
#include "util/state_io.hh"
#include "util/units.hh"

namespace ecolo::sidechannel {

/**
 * Injected sensor failure mode (faults::FaultSchedule). All faulted modes
 * return WITHOUT advancing the RNG, so a fault window shifts no downstream
 * random draws: the stream resumes exactly where it left off once the
 * sensor heals, keeping campaigns seed-reproducible.
 */
enum class SensorFaultMode
{
    Healthy,
    Dropout, //!< ADC reads nothing: estimate is NaN
    Stuck,   //!< DAQ buffer wedged: repeats the last healthy estimate
    Nan,     //!< corrupted samples: estimate is NaN
};

/** Signal-chain parameters of the voltage side channel. */
struct SideChannelParams
{
    double rippleGainVoltsPerKw = 0.020; //!< PFC ripple slope
    double baselineRippleVolts = 0.010;  //!< load-independent floor
    double adcNoiseVolts = 0.0022;       //!< DAQ/ADC noise, rms
    double calibrationErrorStd = 0.008;  //!< one-time gain bias, relative
    /** Extra rms noise injected by the operator's jammer (defense). */
    double jammingNoiseVolts = 0.0;
    /** Extra relative estimation noise (Fig. 12(b) sensitivity knob). */
    double extraRelativeNoise = 0.0;
    /**
     * Ripple samples the attacker averages per one-minute estimate. A
     * DAQ captures many ripple periods per slot, so per-sample noise is
     * averaged down by sqrt(N) in the per-minute estimate the policies
     * consume (the calibration bias is NOT averaged away).
     */
    int samplesPerEstimate = 4;
};

/**
 * One attacker-side channel instance. The calibration bias is drawn once at
 * construction (it models the attacker's imperfect offline calibration) and
 * every estimate then sees fresh measurement noise.
 */
class VoltageSideChannel
{
  public:
    VoltageSideChannel(SideChannelParams params, Rng rng);

    /**
     * Synthesize one voltage-ripple observation for the given true total
     * PDU load and return the attacker's load estimate.
     */
    Kilowatts estimateTotalLoad(Kilowatts true_total);

    /**
     * Average `samples` ripple observations of the same true load into
     * one per-minute estimate (the DAQ captures many ripple periods per
     * slot, so per-sample ADC noise shrinks by sqrt(N) while the
     * calibration bias persists). Draws exactly `samples` ADC-noise
     * normals -- plus `samples` extra-noise normals when
     * extraRelativeNoise > 0 -- so the RNG stream advances by a fixed,
     * documented amount per call. lastRelativeError() reflects the
     * averaged estimate.
     */
    Kilowatts estimateAveraged(Kilowatts true_total, int samples);

    /** Older scratch-buffer form: the same estimate; the buffer is
     * left untouched. */
    Kilowatts estimateAveraged(Kilowatts true_total, int samples,
                               std::vector<double> & /*sample_scratch*/)
    { return estimateAveraged(true_total, samples); }

    /** Relative error of the most recent estimate (est - true) / true. */
    double lastRelativeError() const { return lastRelativeError_; }

    const SideChannelParams &params() const { return params_; }

    /** The realized calibration bias (tests / introspection). */
    double calibrationBias() const { return calibrationBias_; }

    /** Inject (or clear) a sensor fault; see SensorFaultMode. */
    void setFaultMode(SensorFaultMode mode) { faultMode_ = mode; }
    SensorFaultMode faultMode() const { return faultMode_; }

    /** Most recent healthy estimate (what a Stuck sensor repeats). */
    Kilowatts lastHealthyEstimate() const { return lastHealthyEstimate_; }

    /** Serialize / restore the mutable state (checkpointing). */
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);

  private:
    /** Per-call constants of the healthy signal chain. */
    struct Gains
    {
        double believed; //!< the gain the attacker inverts with
        double noiseRms; //!< ADC and jamming noise combined
    };
    Gains gains() const;
    /** One healthy ripple observation of `true_kw`, inverted to kW. */
    double drawEstimate(double true_kw, const Gains &g);

    SideChannelParams params_;
    Rng rng_;
    double calibrationBias_;
    double lastRelativeError_ = 0.0;
    Kilowatts lastHealthyEstimate_{0.0};
    SensorFaultMode faultMode_ = SensorFaultMode::Healthy;
};

} // namespace ecolo::sidechannel

#endif // ECOLO_SIDECHANNEL_VOLTAGE_CHANNEL_HH
