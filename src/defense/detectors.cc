#include "defense/detectors.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ecolo::defense {

ThermalResidualDetector::ThermalResidualDetector(
    Params params, thermal::CoolingParams expected_model)
    : params_(params), expected_(expected_model)
{
}

bool
ThermalResidualDetector::observeMinute(Kilowatts metered_total,
                                       Celsius observed_supply, Rng &rng)
{
    // What the room should do if the metered power were the whole story.
    expected_.step(metered_total, minutes(1));
    const double expected_supply = expected_.supplyTemperature().value();
    const double measured =
        observed_supply.value() + rng.normal(0.0, params_.sensorNoise);
    const double residual = measured - expected_supply;

    cusum_ = std::max(0.0, cusum_ + residual - params_.slack);
    ++minutesObserved_;
    if (!alarmed_ && cusum_ > params_.threshold) {
        alarmed_ = true;
        alarmLatency_ = minutesObserved_;
    }
    return alarmed_;
}

void
ThermalResidualDetector::reset()
{
    cusum_ = 0.0;
    alarmed_ = false;
    minutesObserved_ = 0;
    alarmLatency_ = -1;
    expected_.reset();
}

AirflowAudit::AirflowAudit(Params params, std::size_t num_servers)
    : params_(params), ewma_(num_servers, 0.0)
{
    ECOLO_ASSERT(num_servers > 0, "audit needs at least one server");
}

void
AirflowAudit::observeMinute(const std::vector<Kilowatts> &true_heat,
                            const std::vector<Kilowatts> &metered_power,
                            Rng &rng)
{
    ECOLO_ASSERT(true_heat.size() == ewma_.size() &&
                 metered_power.size() == ewma_.size(),
                 "audit observation size mismatch");
    for (std::size_t s = 0; s < ewma_.size(); ++s) {
        const double measured_heat =
            true_heat[s].value() *
            (1.0 + rng.normal(0.0, params_.measurementNoise));
        double excess = measured_heat - metered_power[s].value();
        if (excess < params_.excessThresholdKw)
            excess = 0.0;
        ewma_[s] = (1.0 - params_.ewmaAlpha) * ewma_[s] +
                   params_.ewmaAlpha * excess;
    }
}

std::vector<std::size_t>
AirflowAudit::flaggedServers() const
{
    std::vector<std::size_t> flagged;
    for (std::size_t s = 0; s < ewma_.size(); ++s)
        if (ewma_[s] > params_.flagThresholdKw)
            flagged.push_back(s);
    return flagged;
}

void
AirflowAudit::reset()
{
    std::fill(ewma_.begin(), ewma_.end(), 0.0);
}

SlaMonitor::SlaMonitor(Params params)
    : params_(params), window_(params.windowMinutes, false)
{
    ECOLO_ASSERT(params_.windowMinutes > 0, "empty SLA window");
    ECOLO_ASSERT(params_.slaBudget > 0.0 && params_.slaBudget < 1.0,
                 "SLA budget out of (0,1)");
}

bool
SlaMonitor::observeMinute(Celsius inlet)
{
    const bool violation = inlet > params_.slaTemperature;
    if (filled_ == window_.size()) {
        if (window_[head_])
            --violationsInWindow_;
    } else {
        ++filled_;
    }
    window_[head_] = violation;
    if (violation)
        ++violationsInWindow_;
    head_ = (head_ + 1) % window_.size();

    ++minutesObserved_;
    const double rate = windowViolationRate();
    // Require at least a day of data before alarming to avoid cold-start
    // false positives.
    if (!alarmed_ && filled_ >= 24 * 60 &&
        rate > params_.slaBudget * params_.alarmFactor) {
        alarmed_ = true;
        alarmLatency_ = minutesObserved_;
    }
    return alarmed_;
}

double
SlaMonitor::windowViolationRate() const
{
    if (filled_ == 0)
        return 0.0;
    return static_cast<double>(violationsInWindow_) /
           static_cast<double>(filled_);
}

void
SlaMonitor::reset()
{
    std::fill(window_.begin(), window_.end(), false);
    head_ = 0;
    filled_ = 0;
    violationsInWindow_ = 0;
    alarmed_ = false;
    minutesObserved_ = 0;
    alarmLatency_ = -1;
}

ThermalCameraAudit::ThermalCameraAudit(Params params,
                                       std::size_t num_servers)
    : params_(params), ewma_(num_servers, 0.0)
{
    ECOLO_ASSERT(num_servers > 0, "audit needs at least one server");
    ECOLO_ASSERT(params_.serverAirflowWPerK > 0.0,
                 "server airflow must be positive");
}

void
ThermalCameraAudit::observeMinute(const std::vector<Celsius> &outlet_temps,
                                  const std::vector<Celsius> &inlet_temps,
                                  const std::vector<Kilowatts> &metered_power,
                                  Rng &rng)
{
    ECOLO_ASSERT(outlet_temps.size() == ewma_.size() &&
                 inlet_temps.size() == ewma_.size() &&
                 metered_power.size() == ewma_.size(),
                 "camera observation size mismatch");
    for (std::size_t s = 0; s < ewma_.size(); ++s) {
        // Outlet the metered power would explain.
        const double expected_rise = metered_power[s].value() * 1000.0 /
                                     params_.serverAirflowWPerK;
        const double seen_rise =
            (outlet_temps[s] - inlet_temps[s]).value() +
            rng.normal(0.0, params_.readingNoise);
        double excess = seen_rise - expected_rise;
        if (excess < params_.excessThresholdC)
            excess = 0.0;
        ewma_[s] = (1.0 - params_.ewmaAlpha) * ewma_[s] +
                   params_.ewmaAlpha * excess;
    }
}

std::vector<std::size_t>
ThermalCameraAudit::flaggedServers() const
{
    std::vector<std::size_t> flagged;
    for (std::size_t s = 0; s < ewma_.size(); ++s)
        if (ewma_[s] > params_.flagThresholdC)
            flagged.push_back(s);
    return flagged;
}

double
ThermalCameraAudit::excessEwma(std::size_t server) const
{
    return ewma_.at(server);
}

void
ThermalCameraAudit::reset()
{
    std::fill(ewma_.begin(), ewma_.end(), 0.0);
}

double
MoveInInspection::detectionProbability() const
{
    const double e = std::clamp(effort, 0.0, 1.0);
    // Saturating curve: modest effort already catches most integrated
    // batteries (they are visible in the PSU bay), diminishing returns
    // after that.
    return 1.0 - std::exp(-3.0 * e);
}

bool
MoveInInspection::catchesBattery(Rng &rng) const
{
    return rng.bernoulli(detectionProbability());
}

} // namespace ecolo::defense
