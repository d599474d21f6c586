/** @file Unit tests for tenants and trace scaling. */

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
