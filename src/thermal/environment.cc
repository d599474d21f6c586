#include "thermal/environment.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ecolo::thermal {

ThermalEnvironment::ThermalEnvironment(
    HeatDistributionMatrix matrix, CoolingParams cooling,
    double server_airflow_w_per_k, KernelMode mode,
    FactorizationOptions factorization,
    std::shared_ptr<const TemporalFactorization> precomputed_factorization)
    : matrixModel_(std::move(matrix), mode, factorization,
                   std::move(precomputed_factorization)),
      cooling_(cooling), serverAirflowWPerK_(server_airflow_w_per_k)
{
    ECOLO_ASSERT(serverAirflowWPerK_ > 0.0,
                 "server airflow must be positive");
}

void
ThermalEnvironment::stepMinute(const std::vector<Kilowatts> &server_heat)
{
    Kilowatts total(0.0);
    for (Kilowatts h : server_heat)
        total += h;
    stepMinute(server_heat, total);
}

void
ThermalEnvironment::stepMinute(const std::vector<Kilowatts> &server_heat,
                               Kilowatts total_heat)
{
    ECOLO_ASSERT(server_heat.size() == numServers(),
                 "heat vector size mismatch: ", server_heat.size(), " vs ",
                 numServers());
    cooling_.step(total_heat, minutes(1));
    matrixModel_.pushPowers(server_heat);
    matrixModel_.computeAllRises(riseCache_);
    lastHeatKw_.resize(server_heat.size());
    for (std::size_t i = 0; i < server_heat.size(); ++i)
        lastHeatKw_[i] = server_heat[i].value();
}

Celsius
ThermalEnvironment::inletTemperature(std::size_t i) const
{
    // An empty cache means no step since construction or reset, so the
    // power history is all zero and the matrix adds no rise.
    if (i >= riseCache_.size())
        return cooling_.supplyTemperature();
    return cooling_.supplyTemperature() + CelsiusDelta(riseCache_[i]);
}

Celsius
ThermalEnvironment::outletTemperature(std::size_t i) const
{
    const double heat_w =
        i < lastHeatKw_.size() ? lastHeatKw_[i] * 1000.0 : 0.0;
    return inletTemperature(i) +
           CelsiusDelta(heat_w / serverAirflowWPerK_);
}

Celsius
ThermalEnvironment::maxInletTemperature() const
{
    if (riseCache_.empty())
        return cooling_.supplyTemperature();
    double best = riseCache_[0];
    for (double r : riseCache_)
        best = std::max(best, r);
    return cooling_.supplyTemperature() + CelsiusDelta(best);
}

Celsius
ThermalEnvironment::meanInletTemperature() const
{
    if (riseCache_.empty())
        return cooling_.supplyTemperature();
    double sum = 0.0;
    for (double r : riseCache_)
        sum += r;
    return cooling_.supplyTemperature() +
           CelsiusDelta(sum / static_cast<double>(riseCache_.size()));
}

void
ThermalEnvironment::reset()
{
    matrixModel_.reset();
    cooling_.reset();
    riseCache_.clear();
    lastHeatKw_.clear();
}

void
ThermalEnvironment::saveState(util::StateWriter &writer) const
{
    writer.tag("TENV");
    matrixModel_.saveState(writer);
    cooling_.saveState(writer);
    writer.f64Vector(riseCache_);
    writer.f64Vector(lastHeatKw_);
}

void
ThermalEnvironment::loadState(util::StateReader &reader)
{
    reader.tag("TENV");
    matrixModel_.loadState(reader);
    cooling_.loadState(reader);
    riseCache_ = reader.f64Vector();
    lastHeatKw_ = reader.f64Vector();
}

} // namespace ecolo::thermal
