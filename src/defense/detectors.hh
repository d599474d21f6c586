/**
 * @file
 * Operator-side defenses (Section VII of the paper).
 *
 * Detection:
 *  - ThermalResidualDetector: cross-checks what the thermal environment
 *    *should* look like given the metered power against what the sensors
 *    report; behind-the-meter heat creates a persistent positive residual
 *    that a CUSUM statistic accumulates into an alarm.
 *  - AirflowAudit: per-server outlet airflow + temperature metering
 *    estimates each server's true heat output; a server whose heat
 *    persistently exceeds its metered power is pinpointed as the attacker.
 *  - SlaMonitor: tracks the long-term temperature SLA (e.g., inlet below
 *    the set point 99% of the time); an attacker hiding behind the
 *    occasional-emergency statistics is exposed when the violation rate
 *    becomes statistically inconsistent with the no-attack baseline.
 *
 * Prevention:
 *  - MoveInInspection: probabilistic model of catching built-in batteries
 *    during tenant onboarding.
 *  - Jamming and extra cooling capacity are knobs on the side-channel and
 *    cooling subsystems respectively; see SideChannelParams::jammingNoiseVolts
 *    and CoolingParams::capacity.
 */

#ifndef ECOLO_DEFENSE_DETECTORS_HH
#define ECOLO_DEFENSE_DETECTORS_HH

#include <cstddef>
#include <vector>

#include "thermal/cooling.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace ecolo::defense {

/** CUSUM detector on the metered-power-vs-temperature residual. */
class ThermalResidualDetector
{
  public:
    struct Params
    {
        /** Residual slack absorbed before accumulating (deg C). */
        double slack = 0.3;
        /** CUSUM alarm threshold (deg C-minutes of excess residual). */
        double threshold = 3.0;
        /** Sensor noise on the observed supply temperature (deg C rms). */
        double sensorNoise = 0.15;
    };

    /**
     * @param params detector tuning
     * @param expected_model a replica of the room model the operator runs
     *        on *metered* power (same CoolingParams as the real room)
     */
    ThermalResidualDetector(Params params,
                            thermal::CoolingParams expected_model);

    /**
     * Feed one minute of observations.
     * @param metered_total total metered power this minute
     * @param observed_supply true supply temperature (sensor noise added
     *        internally)
     * @return true if the alarm is raised this minute
     */
    bool observeMinute(Kilowatts metered_total, Celsius observed_supply,
                       Rng &rng);

    bool alarmed() const { return alarmed_; }
    double cusum() const { return cusum_; }
    /** Minutes from first observation to the alarm; -1 if never. */
    long alarmLatencyMinutes() const { return alarmLatency_; }

    void reset();

  private:
    Params params_;
    thermal::CoolingSystem expected_;
    double cusum_ = 0.0;
    bool alarmed_ = false;
    long minutesObserved_ = 0;
    long alarmLatency_ = -1;
};

/** Per-server heat audit via outlet airflow metering. */
class AirflowAudit
{
  public:
    struct Params
    {
        /** Relative error of the airflow-based heat measurement. */
        double measurementNoise = 0.05;
        /** Excess heat (kW) over metered power that raises suspicion. */
        double excessThresholdKw = 0.05;
        /** EWMA smoothing factor for per-server excess. */
        double ewmaAlpha = 0.2;
        /** EWMA level at which a server is flagged (kW). */
        double flagThresholdKw = 0.1;
    };

    AirflowAudit(Params params, std::size_t num_servers);

    /**
     * Feed one minute of per-server true heat and metered power.
     * Measurement noise is applied internally.
     */
    void observeMinute(const std::vector<Kilowatts> &true_heat,
                       const std::vector<Kilowatts> &metered_power,
                       Rng &rng);

    /** Servers currently flagged as emitting behind-the-meter heat. */
    std::vector<std::size_t> flaggedServers() const;

    void reset();

  private:
    Params params_;
    std::vector<double> ewma_;
};

/** Long-term temperature-SLA statistics monitor. */
class SlaMonitor
{
  public:
    struct Params
    {
        Celsius slaTemperature{27.5};  //!< "conditioned below" level
        double slaBudget = 0.01;       //!< allowed violation fraction
        std::size_t windowMinutes = 7 * 24 * 60; //!< sliding window
        /** Alarm when the windowed violation rate exceeds budget * this. */
        double alarmFactor = 2.0;
    };

    explicit SlaMonitor(Params params);

    /** Feed one minute's (max) inlet temperature; returns alarm state. */
    bool observeMinute(Celsius inlet);

    double windowViolationRate() const;
    bool alarmed() const { return alarmed_; }
    long alarmLatencyMinutes() const { return alarmLatency_; }

    void reset();

  private:
    Params params_;
    std::vector<bool> window_;
    std::size_t head_ = 0;
    std::size_t filled_ = 0;
    std::size_t violationsInWindow_ = 0;
    bool alarmed_ = false;
    long minutesObserved_ = 0;
    long alarmLatency_ = -1;
};

/**
 * Thermal-camera (or microphone-array) audit: Section VII's alternative
 * to airflow meters for pinpointing the attacker. A camera reads each
 * server's *outlet* temperature; a server whose outlet runs persistently
 * hotter than its metered power explains is flagged. Less direct than
 * the airflow audit (outlet temperature also depends on fan speed, which
 * we model as measurement noise), but needs no per-server flow sensors.
 */
class ThermalCameraAudit
{
  public:
    struct Params
    {
        /** Per-server fan airflow in watts per kelvin (m_dot * c_p). */
        double serverAirflowWPerK = 15.0;
        /** Camera + fan-speed uncertainty on outlet readings (deg C). */
        double readingNoise = 1.5;
        /** Outlet excess over expectation that raises suspicion (deg C). */
        double excessThresholdC = 3.0;
        /** EWMA smoothing factor. */
        double ewmaAlpha = 0.2;
        /** EWMA level at which a server is flagged (deg C). */
        double flagThresholdC = 5.0;
    };

    ThermalCameraAudit(Params params, std::size_t num_servers);

    /**
     * Feed one minute of observations.
     * @param outlet_temps what the camera sees per server
     * @param inlet_temps per-server inlet temperatures (known from the
     *        conditioned supply)
     * @param metered_power per-server metered power
     */
    void observeMinute(const std::vector<Celsius> &outlet_temps,
                       const std::vector<Celsius> &inlet_temps,
                       const std::vector<Kilowatts> &metered_power,
                       Rng &rng);

    /** Servers currently flagged as running hotter than they meter. */
    std::vector<std::size_t> flaggedServers() const;

    double excessEwma(std::size_t server) const;

    void reset();

  private:
    Params params_;
    std::vector<double> ewma_;
};

/** Move-in inspection policy: chance of catching built-in batteries. */
struct MoveInInspection
{
    /** Inspection thoroughness in [0, 1] (0 = none, 1 = exhaustive). */
    double effort = 0.5;
    /** Detection probability saturates with effort. */
    double detectionProbability() const;
    /** Roll the dice for one tenant's move-in. */
    bool catchesBattery(Rng &rng) const;
};

} // namespace ecolo::defense

#endif // ECOLO_DEFENSE_DETECTORS_HH
