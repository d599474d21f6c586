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
    // The push first: the cooling step reads the caller's heat total,
    // whose serial sum can then finish while the kernel runs.
    matrixModel_.pushPowers(server_heat);
    cooling_.step(total_heat, minutes(1));
    if (!streaming())
        matrixModel_.computeAllRises(denseRises_);
    summarizeRises();
}

void
ThermalEnvironment::summarizeRises()
{
    // One pass in index order: the max starts from rises[0], the sum
    // adds rises[0..N-1] in turn from zero.
    const std::vector<double> &r = rises();
    maxRise_ = r.empty() ? 0.0 : r[0];
    riseSum_ = 0.0;
    for (double rise : r) {
        maxRise_ = std::max(maxRise_, rise);
        riseSum_ += rise;
    }
}

const std::vector<double> &
ThermalEnvironment::rises() const
{
    return streaming() ? matrixModel_.streamingRises() : denseRises_;
}

Celsius
ThermalEnvironment::inletTemperature(std::size_t i) const
{
    // Before any step the dense rises are empty and the streaming ones
    // zero: the power history is all zero and the matrix adds no rise.
    const std::vector<double> &r = rises();
    if (i >= r.size())
        return cooling_.supplyTemperature();
    return cooling_.supplyTemperature() + CelsiusDelta(r[i]);
}

Celsius
ThermalEnvironment::outletTemperature(std::size_t i) const
{
    const double heat_w =
        i < numServers() ? matrixModel_.latestPowers()[i] * 1000.0 : 0.0;
    return inletTemperature(i) +
           CelsiusDelta(heat_w / serverAirflowWPerK_);
}

Celsius
ThermalEnvironment::maxInletTemperature() const
{
    return cooling_.supplyTemperature() + CelsiusDelta(maxRise_);
}

Celsius
ThermalEnvironment::meanInletTemperature() const
{
    return cooling_.supplyTemperature() +
           CelsiusDelta(riseSum_ / static_cast<double>(numServers()));
}

void
ThermalEnvironment::reset()
{
    matrixModel_.reset();
    cooling_.reset();
    denseRises_.clear();
    summarizeRises();
}

void
ThermalEnvironment::saveState(util::StateWriter &writer) const
{
    // The rises and the last heat vector (empty before the first step)
    // are derived from the model's state; loadState reads past them.
    writer.tag("TENV");
    matrixModel_.saveState(writer);
    cooling_.saveState(writer);
    std::vector<double> saved_rises;
    std::vector<double> last_heat;
    if (!matrixModel_.empty()) {
        saved_rises = rises();
        const double *latest = matrixModel_.latestPowers();
        last_heat.assign(latest, latest + numServers());
    }
    writer.f64Vector(saved_rises);
    writer.f64Vector(last_heat);
}

void
ThermalEnvironment::loadState(util::StateReader &reader)
{
    reader.tag("TENV");
    matrixModel_.loadState(reader);
    cooling_.loadState(reader);
    std::vector<double> saved_rises = reader.f64Vector();
    reader.f64Vector(); // the last heat: the model's newest ring slot
    if (!streaming())
        denseRises_ = std::move(saved_rises);
    summarizeRises();
}

} // namespace ecolo::thermal
