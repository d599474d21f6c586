#include "power/tenant.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ecolo::power {

Tenant::Tenant(std::string name, Kilowatts subscribed_capacity,
               std::size_t num_servers, ServerSpec server_spec)
    : name_(std::move(name)), subscribed_(subscribed_capacity)
{
    ECOLO_ASSERT(num_servers > 0, "tenant '", name_, "' has no servers");
    servers_.reserve(num_servers);
    for (std::size_t i = 0; i < num_servers; ++i)
        servers_.emplace_back(server_spec);
}

void
Tenant::setTrace(std::shared_ptr<const trace::UtilizationTrace> trace,
                 double scale)
{
    ECOLO_ASSERT(trace != nullptr && !trace->empty(),
                 "empty trace for tenant '", name_, "'");
    trace_ = std::move(trace);
    scale_ = scale;
}

void
Tenant::setTrace(trace::UtilizationTrace trace)
{
    setTrace(std::make_shared<const trace::UtilizationTrace>(
                 std::move(trace)),
             1.0);
}

const trace::UtilizationTrace &
Tenant::traceRef() const
{
    ECOLO_ASSERT(hasTrace(), "tenant '", name_, "' has no trace attached");
    return *trace_;
}

void
Tenant::applyTraceAt(MinuteIndex t)
{
    setUtilization(std::clamp(traceRef().at(t) * scale_, 0.0, 1.0));
}

void
Tenant::setUtilization(double utilization)
{
    for (Server &s : servers_)
        s.setUtilization(utilization);
}

Kilowatts
Tenant::demandPower() const
{
    Kilowatts total(0.0);
    for (const Server &s : servers_)
        total += s.demandPower();
    return total;
}

Kilowatts
Tenant::actualPower() const
{
    Kilowatts total(0.0);
    for (const Server &s : servers_)
        total += s.actualPower();
    return total;
}

void
Tenant::setPerServerCap(Kilowatts cap)
{
    for (Server &s : servers_)
        s.setPowerCap(cap);
}

void
Tenant::clearCaps()
{
    for (Server &s : servers_)
        s.clearPowerCap();
}

void
Tenant::setPoweredOn(bool on)
{
    for (Server &s : servers_)
        s.setPoweredOn(on);
}

double
Tenant::servedFraction() const
{
    if (servers_.empty())
        return 1.0;
    double sum = 0.0;
    for (const Server &s : servers_)
        sum += s.servedFraction();
    return sum / static_cast<double>(servers_.size());
}

double
Tenant::utilization() const
{
    if (servers_.empty())
        return 0.0;
    double sum = 0.0;
    for (const Server &s : servers_)
        sum += s.utilization();
    return sum / static_cast<double>(servers_.size());
}

double
computeMeanPowerScaleFactor(const std::vector<Tenant *> &tenants,
                            Kilowatts target_mean_power)
{
    ECOLO_ASSERT(!tenants.empty(), "no tenants to scale");
    for (Tenant *t : tenants)
        ECOLO_ASSERT(t != nullptr && t->hasTrace(),
                     "computeMeanPowerScaleFactor needs tenants with traces");

    // All tenants share one trace length (they are generated together).
    const std::size_t horizon = tenants.front()->traceRef().size();
    for (Tenant *t : tenants)
        ECOLO_ASSERT(t->traceRef().size() == horizon,
                     "tenant trace lengths differ");

    // Mean power is a monotone function of the common scale factor; solve
    // for it by bisection. The achieved mean saturates at all-peak power,
    // so clamp the target to what is actually reachable.
    auto mean_power_for = [&](double factor) {
        double total_kw = 0.0;
        for (const Tenant *t : tenants) {
            const auto &samples = t->traceRef().samples();
            const ServerSpec &spec = t->server(0).spec();
            const double n = static_cast<double>(t->numServers());
            double tenant_kw = 0.0;
            for (double u : samples) {
                const double scaled = std::clamp(u * factor, 0.0, 1.0);
                tenant_kw += spec.powerAt(scaled).value() * n;
            }
            total_kw += tenant_kw / static_cast<double>(samples.size());
        }
        return total_kw;
    };

    const double target = target_mean_power.value();
    double lo = 0.0, hi = 1.0;
    // Grow hi until the target is bracketed or saturation is reached.
    while (mean_power_for(hi) < target && hi < 64.0)
        hi *= 2.0;
    if (mean_power_for(hi) < target) {
        warn("target mean power ", target,
             " kW unreachable; saturating traces at full utilization");
    }
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (mean_power_for(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace ecolo::power
