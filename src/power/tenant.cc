#include "power/tenant.hh"

#include <algorithm>
#include <cmath>

#include "power/mean_power_kernel.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo::power {

Tenant::Tenant(std::string name, Kilowatts subscribed_capacity,
               std::size_t num_servers, ServerSpec server_spec)
    : name_(std::move(name)), subscribed_(subscribed_capacity),
      server_(server_spec), numServers_(num_servers),
      poweredOn_(num_servers)
{
    ECOLO_ASSERT(num_servers > 0, "tenant '", name_, "' has no servers");
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
    server_.setUtilization(utilization);
}

Kilowatts
Tenant::sumOverPoweredOn(Kilowatts per_server) const
{
    Kilowatts total(0.0);
    for (std::size_t i = 0; i < poweredOn_; ++i)
        total += per_server;
    return total;
}

Kilowatts
Tenant::demandPower() const
{
    return sumOverPoweredOn(server_.demandPower());
}

Kilowatts
Tenant::actualPower() const
{
    return sumOverPoweredOn(server_.actualPower());
}

void
Tenant::setPerServerCap(Kilowatts cap)
{
    server_.setPowerCap(cap);
}

void
Tenant::clearCaps()
{
    server_.clearPowerCap();
}

void
Tenant::setPoweredOn(bool on)
{
    poweredOn_ = on ? numServers_ : 0;
}

void
Tenant::powerOffLast(std::size_t k)
{
    poweredOn_ = std::min(poweredOn_, numServers_ - std::min(k, numServers_));
}

double
Tenant::servedFraction() const
{
    // An off server serves nothing of a pending load (Server's rule).
    const double on = server_.servedFraction();
    const double off = server_.utilization() > 0.0 ? 0.0 : 1.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < poweredOn_; ++i)
        sum += on;
    for (std::size_t i = poweredOn_; i < numServers_; ++i)
        sum += off;
    return sum / static_cast<double>(numServers_);
}

double
Tenant::utilization() const
{
    const double u = server_.utilization();
    double sum = 0.0;
    for (std::size_t i = 0; i < numServers_; ++i)
        sum += u;
    return sum / static_cast<double>(numServers_);
}

double
computeMeanPowerScaleFactor(const std::vector<Tenant *> &tenants,
                            Kilowatts target_mean_power)
{
    ECOLO_ASSERT(!tenants.empty(), "no tenants to scale");
    for (Tenant *t : tenants) {
        ECOLO_ASSERT(t != nullptr && t->hasTrace(),
                     "computeMeanPowerScaleFactor needs tenants with traces");
        const ServerSpec &spec = t->spec();
        ECOLO_ASSERT(spec.idlePower <= spec.peakPower,
                     "idle power above peak power");
    }

    // All tenants share one trace length (they are generated together).
    const std::size_t horizon = tenants.front()->traceRef().size();
    for (Tenant *t : tenants)
        ECOLO_ASSERT(t->traceRef().size() == horizon,
                     "tenant trace lengths differ");

    // Site mean power at kMeanPowerLanes factors, one pass per tenant.
    // Each lane is the sum ServerSpec::powerAt would give, bit for bit.
    // The passes run on the pool, each into its tenant's slot, and the
    // slots are added in tenant order, so the sum has the serial bits.
    std::vector<MeanPowerLanes> tenant_kw(tenants.size());
    auto mean_power_for = [&](const MeanPowerLanes &factors) {
        util::parallelFor(0, tenants.size(), [&](std::size_t j) {
            const Tenant *t = tenants[j];
            const ServerSpec &spec = t->spec();
            tenant_kw[j] = tenantMeanPower(
                t->traceRef().samples(), spec.idlePower.value(),
                (spec.peakPower - spec.idlePower).value(),
                static_cast<double>(t->numServers()), factors);
        });
        MeanPowerLanes total_kw{};
        for (const MeanPowerLanes &lanes : tenant_kw)
            for (std::size_t k = 0; k < kMeanPowerLanes; ++k)
                total_kw[k] += lanes[k];
        return total_kw;
    };

    // Mean power is a monotone function of the common scale factor; solve
    // for it by bisection. The achieved mean saturates at all-peak power,
    // so clamp the target to what is actually reachable.
    const double target = target_mean_power.value();
    // hi is the first of 1, 2, 4, ..., 64 whose mean reaches the target,
    // or 64 when none does (the last lane repeats 64).
    const MeanPowerLanes bracket{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 64.0};
    const MeanPowerLanes at_bracket = mean_power_for(bracket);
    std::size_t first = 0;
    while (at_bracket[first] < target && first < 6)
        ++first;
    double lo = 0.0, hi = bracket[first];
    if (at_bracket[first] < target) {
        warn("target mean power ", target,
             " kW unreachable; saturating traces at full utilization");
    }
    // 60 halvings, three per pass: a pass scores the seven midpoints the
    // next three halvings can visit (a heap: node i's halves are 2i+1
    // below and 2i+2 above), computed as 0.5 * (lo + hi) from the very
    // bracket each halving would hold, then walks one root-to-leaf path.
    for (int pass = 0; pass < 20; ++pass) {
        const double mid = 0.5 * (lo + hi);
        const double below = 0.5 * (lo + mid);
        const double above = 0.5 * (mid + hi);
        const MeanPowerLanes mids{mid,
                                  below,
                                  above,
                                  0.5 * (lo + below),
                                  0.5 * (below + mid),
                                  0.5 * (mid + above),
                                  0.5 * (above + hi),
                                  mid};
        const MeanPowerLanes at_mids = mean_power_for(mids);
        std::size_t node = 0;
        for (int level = 0; level < 3; ++level) {
            if (at_mids[node] < target) {
                lo = mids[node];
                node = 2 * node + 2;
            } else {
                hi = mids[node];
                node = 2 * node + 1;
            }
        }
    }
    return 0.5 * (lo + hi);
}

} // namespace ecolo::power
