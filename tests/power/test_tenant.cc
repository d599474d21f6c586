/** @file Unit tests for tenants and trace scaling. */

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "power/tenant.hh"
#include "trace/generators.hh"
#include "util/rng.hh"
#include "util/sim_time.hh"

namespace ecolo::power {
namespace {

const ServerSpec kSpec{Kilowatts(0.06), Kilowatts(0.20)};

Tenant
makeTenant(std::size_t servers = 12)
{
    return Tenant("t", Kilowatts(2.4), servers, kSpec);
}

TEST(Tenant, AggregatesPowerAcrossServers)
{
    Tenant t = makeTenant();
    t.setUtilization(1.0);
    EXPECT_DOUBLE_EQ(t.demandPower().value(), 2.4);
    t.setUtilization(0.0);
    EXPECT_DOUBLE_EQ(t.demandPower().value(), 12 * 0.06);
}

TEST(Tenant, TraceDrivesUtilization)
{
    Tenant t = makeTenant();
    t.setTrace(trace::UtilizationTrace({0.0, 1.0}));
    t.applyTraceAt(0);
    EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
    t.applyTraceAt(1);
    EXPECT_DOUBLE_EQ(t.utilization(), 1.0);
    t.applyTraceAt(2); // wraps
    EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
}

TEST(Tenant, CappingAllServers)
{
    Tenant t = makeTenant();
    t.setUtilization(1.0);
    t.setPerServerCap(Kilowatts(0.12));
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 12 * 0.12);
    EXPECT_LT(t.servedFraction(), 1.0);
    t.clearCaps();
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 2.4);
    EXPECT_DOUBLE_EQ(t.servedFraction(), 1.0);
}

TEST(Tenant, PowerOnOff)
{
    Tenant t = makeTenant();
    t.setUtilization(0.5);
    t.setPoweredOn(false);
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 0.0);
    t.setPoweredOn(true);
    EXPECT_GT(t.actualPower().value(), 0.0);
}

TEST(Tenant, TraceScaleClampsAtRead)
{
    Tenant t = makeTenant();
    t.setTrace(std::make_shared<const trace::UtilizationTrace>(
                   std::vector<double>{0.3, 0.7}),
               2.0);
    t.applyTraceAt(0);
    EXPECT_DOUBLE_EQ(t.utilization(), 0.6);
    t.applyTraceAt(1);
    EXPECT_DOUBLE_EQ(t.utilization(), 1.0);
    EXPECT_DOUBLE_EQ(t.traceRef()[1], 0.7); // the trace itself is unscaled
}

/** Solve the common factor, then attach each tenant's trace through it
 * (the engine's set-up sequence). */
void
scaleToMeanPower(std::vector<Tenant> &tenants, Kilowatts target)
{
    std::vector<Tenant *> ptrs;
    for (Tenant &t : tenants)
        ptrs.push_back(&t);
    const double factor = computeMeanPowerScaleFactor(ptrs, target);
    for (Tenant &t : tenants) {
        t.setTrace(std::make_shared<const trace::UtilizationTrace>(
                       t.traceRef()),
                   factor);
    }
}

TEST(ScaleTenantsToMeanPower, HitsAggregateTarget)
{
    Rng rng(3);
    std::vector<Tenant> tenants;
    for (int k = 0; k < 3; ++k) {
        tenants.push_back(makeTenant());
        trace::DiurnalTraceGenerator gen;
        tenants.back().setTrace(gen.generate(7 * kMinutesPerDay, rng));
    }
    scaleToMeanPower(tenants, Kilowatts(5.5));

    // Measure the achieved mean by replaying the traces.
    double sum_kw = 0.0;
    const MinuteIndex horizon = 7 * kMinutesPerDay;
    for (MinuteIndex m = 0; m < horizon; ++m) {
        for (auto &t : tenants) {
            t.applyTraceAt(m);
            sum_kw += t.actualPower().value();
        }
    }
    EXPECT_NEAR(sum_kw / static_cast<double>(horizon), 5.5, 0.05);
}

TEST(ScaleTenantsToMeanPower, SaturatesGracefully)
{
    Rng rng(5);
    std::vector<Tenant> tenants{makeTenant()};
    tenants[0].setTrace(
        trace::DiurnalTraceGenerator().generate(kMinutesPerDay, rng));
    // Peak power of 12 servers is 2.4 kW; demand 2.4 kW mean means all-on.
    scaleToMeanPower(tenants, Kilowatts(2.4));
    double sum = 0.0;
    for (MinuteIndex m = 0; m < kMinutesPerDay; ++m) {
        tenants[0].applyTraceAt(m);
        sum += tenants[0].utilization();
    }
    EXPECT_GT(sum / static_cast<double>(kMinutesPerDay), 0.99);
}

/**
 * The per-server model a grouped Tenant replaces: one Server object per
 * server, every aggregate summed over all of them in server order.
 */
struct ReferenceTenant
{
    std::vector<Server> servers;

    ReferenceTenant(std::size_t n, ServerSpec spec)
        : servers(n, Server(spec))
    {}

    Kilowatts demandPower() const
    {
        Kilowatts total(0.0);
        for (const Server &s : servers)
            total += s.demandPower();
        return total;
    }
    Kilowatts actualPower() const
    {
        Kilowatts total(0.0);
        for (const Server &s : servers)
            total += s.actualPower();
        return total;
    }
    double servedFraction() const
    {
        double sum = 0.0;
        for (const Server &s : servers)
            sum += s.servedFraction();
        return sum / static_cast<double>(servers.size());
    }
    double utilization() const
    {
        double sum = 0.0;
        for (const Server &s : servers)
            sum += s.utilization();
        return sum / static_cast<double>(servers.size());
    }
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Per-server heat as the slot loop lays it out: tenant by tenant. */
std::vector<double>
groupedHeat(const std::vector<Tenant> &tenants)
{
    std::vector<double> heat;
    for (const Tenant &t : tenants) {
        const double p = t.serverActualPower().value();
        for (std::size_t i = 0; i < t.numServers(); ++i)
            heat.push_back(i < t.numPoweredOn() ? p : 0.0);
    }
    return heat;
}

std::vector<double>
referenceHeat(const std::vector<ReferenceTenant> &tenants)
{
    std::vector<double> heat;
    for (const ReferenceTenant &t : tenants)
        for (const Server &s : t.servers)
            heat.push_back(s.actualPower().value());
    return heat;
}

TEST(TenantGroup, MatchesPerServerReferenceBitForBit)
{
    // Three tenants of different sizes driven through the slot loop's
    // sequence: utilization, outage, cap or none, then servers taken off
    // from the back of the whole bank (failures plus shedding).
    const ServerSpec spec{Kilowatts(0.06), Kilowatts(0.20)};
    const std::size_t sizes[] = {12, 7, 1};
    std::vector<Tenant> grouped;
    std::vector<ReferenceTenant> reference;
    for (std::size_t n : sizes) {
        grouped.emplace_back("t", Kilowatts(2.4), n, spec);
        reference.emplace_back(n, spec);
    }
    const std::size_t bank = 12 + 7 + 1;

    Rng rng(25);
    for (int step = 0; step < 4000; ++step) {
        const double u_pick = rng.uniform();
        const bool outage = rng.bernoulli(0.1);
        const bool capped = rng.bernoulli(0.4);
        // Caps from below idle to above peak.
        const Kilowatts cap(rng.uniform(0.03, 0.25));
        for (std::size_t k = 0; k < grouped.size(); ++k) {
            // Exact 0 and 1 as well as interior values.
            const double u = u_pick < 0.1   ? 0.0
                             : u_pick < 0.2 ? 1.0
                                            : rng.uniform();
            grouped[k].setUtilization(u);
            grouped[k].setPoweredOn(!outage);
            for (Server &s : reference[k].servers) {
                s.setUtilization(u);
                s.setPoweredOn(!outage);
            }
            if (capped) {
                grouped[k].setPerServerCap(cap);
                for (Server &s : reference[k].servers)
                    s.setPowerCap(cap);
            } else {
                grouped[k].clearCaps();
                for (Server &s : reference[k].servers)
                    s.clearPowerCap();
            }
        }
        // Back-to-front across tenants, up to the whole bank; sometimes
        // a second, overlapping pass (servers already off stay off).
        const int passes = rng.bernoulli(0.2) ? 2 : 1;
        for (int pass = 0; pass < passes; ++pass) {
            std::size_t remaining =
                rng.bernoulli(0.5) ? 0 : rng.uniformInt(bank + 1);
            for (std::size_t k = grouped.size(); k-- > 0 && remaining > 0;) {
                const std::size_t off =
                    std::min(remaining, grouped[k].numServers());
                grouped[k].powerOffLast(off);
                auto &servers = reference[k].servers;
                for (std::size_t i = servers.size() - off;
                     i < servers.size(); ++i)
                    servers[i].setPoweredOn(false);
                remaining -= off;
            }
        }

        for (std::size_t k = 0; k < grouped.size(); ++k) {
            SCOPED_TRACE(::testing::Message()
                         << "step " << step << " tenant " << k);
            ASSERT_TRUE(sameBits(grouped[k].actualPower().value(),
                                 reference[k].actualPower().value()));
            ASSERT_TRUE(sameBits(grouped[k].demandPower().value(),
                                 reference[k].demandPower().value()));
            ASSERT_TRUE(sameBits(grouped[k].servedFraction(),
                                 reference[k].servedFraction()));
            ASSERT_TRUE(sameBits(grouped[k].utilization(),
                                 reference[k].utilization()));
        }
        const std::vector<double> heat = groupedHeat(grouped);
        const std::vector<double> ref_heat = referenceHeat(reference);
        ASSERT_EQ(heat.size(), ref_heat.size());
        ASSERT_EQ(std::memcmp(heat.data(), ref_heat.data(),
                              heat.size() * sizeof(double)),
                  0)
            << "step " << step;
    }
}

TEST(TenantGroup, PowerOffLastTakesServersFromTheBack)
{
    Tenant t = makeTenant();
    t.setUtilization(0.5);
    EXPECT_EQ(t.numPoweredOn(), 12u);
    t.powerOffLast(3);
    EXPECT_EQ(t.numPoweredOn(), 9u);
    t.powerOffLast(2); // the last three are already off
    EXPECT_EQ(t.numPoweredOn(), 9u);
    t.powerOffLast(40); // more than the tenant has
    EXPECT_EQ(t.numPoweredOn(), 0u);
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 0.0);
    t.setPoweredOn(true);
    EXPECT_EQ(t.numPoweredOn(), 12u);
}

TEST(TenantDeathTest, ApplyTraceWithoutTrace)
{
    Tenant t = makeTenant();
    EXPECT_DEATH(t.applyTraceAt(0), "no trace");
}

TEST(TenantDeathTest, EmptyTraceRejected)
{
    Tenant t = makeTenant();
    EXPECT_DEATH(t.setTrace(trace::UtilizationTrace()), "empty trace");
}

} // namespace
} // namespace ecolo::power
