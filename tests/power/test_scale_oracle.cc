/**
 * @file
 * Byte-identity of the scale solve. The serial 63-pass bisection that
 * computeMeanPowerScaleFactor replaced lives on here as the oracle; the
 * multi-lane solve must return its factor bit for bit. This TU is built
 * with -ffp-contract=off (tests/CMakeLists.txt) so the oracle keeps the
 * bits of the baseline ISA under -march=native too.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/setup_cache.hh"
#include "power/mean_power_kernel.hh"
#include "power/tenant.hh"
#include "trace/generators.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/sim_time.hh"

namespace ecolo::power {
namespace {

/** ServerSpec::powerAt, compiled here so the oracle's bits do not depend
 * on how the library's server.cc was compiled. */
Kilowatts
oraclePowerAt(const ServerSpec &spec, double utilization)
{
    ECOLO_ASSERT(spec.idlePower <= spec.peakPower,
                 "idle power above peak power");
    const double u = std::clamp(utilization, 0.0, 1.0);
    return spec.idlePower + (spec.peakPower - spec.idlePower) * u;
}

/** The serial bisection as it stood before the multi-lane solve. */
double
oracleScaleFactor(const std::vector<Tenant *> &tenants,
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
            const ServerSpec &spec = t->spec();
            const double n = static_cast<double>(t->numServers());
            double tenant_kw = 0.0;
            for (double u : samples) {
                const double scaled = std::clamp(u * factor, 0.0, 1.0);
                tenant_kw += oraclePowerAt(spec, scaled).value() * n;
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

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

enum class Kind { Diurnal, GoogleShared, Request, External };

constexpr std::size_t kYear = kMinutesPerYear;
constexpr std::size_t kDay = kMinutesPerDay;

/**
 * Traces for up to five tenants of the given kind, staggered the way
 * the engine staggers them; GoogleShared hands every tenant one trace,
 * External is uniform noise with runs of exact zeros and ones.
 */
std::vector<std::shared_ptr<const trace::UtilizationTrace>>
makeTraces(Kind kind, std::size_t minutes, std::uint64_t seed)
{
    constexpr std::size_t kTenants = 5;
    Rng rng(seed);
    std::vector<std::shared_ptr<const trace::UtilizationTrace>> traces;
    for (std::size_t k = 0; k < kTenants; ++k) {
        const double kd = static_cast<double>(k);
        trace::UtilizationTrace t;
        switch (kind) {
          case Kind::Diurnal: {
            trace::DiurnalTraceGenerator::Params p;
            p.peakHour += 0.4 * (kd - 1.0);
            p.baseUtilization += 0.02 * (kd - 1.0);
            t = trace::DiurnalTraceGenerator(p).generate(minutes, rng);
            break;
          }
          case Kind::GoogleShared:
            if (k > 0) {
                traces.push_back(traces.front());
                continue;
            }
            t = trace::GoogleStyleTraceGenerator().generate(minutes, rng);
            break;
          case Kind::Request: {
            trace::RequestTraceGenerator::Params p;
            p.peakHour += 0.4 * (kd - 1.0);
            t = trace::RequestTraceGenerator(p).generate(minutes, rng);
            break;
          }
          case Kind::External: {
            std::vector<double> samples(minutes);
            for (double &s : samples) {
                const double r = rng.uniform();
                s = r < 0.05 ? 0.0 : r < 0.1 ? 1.0 : rng.uniform();
            }
            t = trace::UtilizationTrace(std::move(samples));
            break;
          }
        }
        traces.push_back(
            std::make_shared<const trace::UtilizationTrace>(std::move(t)));
    }
    return traces;
}

/** Tenants 0..count-1 with per-tenant server counts and specs. */
std::vector<Tenant>
makeTenants(const std::vector<std::shared_ptr<const trace::UtilizationTrace>>
                &traces,
            std::size_t count)
{
    std::vector<Tenant> tenants;
    for (std::size_t k = 0; k < count; ++k) {
        const double kd = static_cast<double>(k);
        const ServerSpec spec{Kilowatts(0.06 + 0.01 * kd),
                              Kilowatts(0.20 + 0.03 * kd)};
        tenants.emplace_back("t" + std::to_string(k), Kilowatts(2.4),
                             8 + 3 * k, spec);
        tenants.back().setTrace(traces[k], 1.0);
    }
    return tenants;
}

/** Site mean power at factor f, for choosing targets only. */
double
approxMeanPower(const std::vector<Tenant *> &tenants, double f)
{
    double total = 0.0;
    for (const Tenant *t : tenants) {
        double sum = 0.0;
        for (double u : t->traceRef().samples())
            sum += t->spec().powerAt(u * f).value();
        total += sum * static_cast<double>(t->numServers()) /
                 static_cast<double>(t->traceRef().size());
    }
    return total;
}

enum class Target { BelowOne, AboveOne, NearZero, Unreachable };
constexpr Target kTargets[] = {Target::BelowOne, Target::AboveOne,
                               Target::NearZero, Target::Unreachable};

Kilowatts
targetFor(const std::vector<Tenant *> &tenants, Target which)
{
    const double floor_kw = approxMeanPower(tenants, 0.0);
    const double at_one = approxMeanPower(tenants, 1.0);
    double peak_kw = 0.0;
    for (const Tenant *t : tenants)
        peak_kw += t->spec().peakPower.value() *
                   static_cast<double>(t->numServers());
    switch (which) {
      case Target::BelowOne:
        return Kilowatts(0.5 * (floor_kw + at_one));
      case Target::AboveOne:
        return Kilowatts(0.5 * (at_one + peak_kw));
      case Target::NearZero:
        return Kilowatts(floor_kw + 1e-9);
      case Target::Unreachable:
        break;
    }
    return Kilowatts(1.01 * peak_kw); // the hi == 64 warn path
}

std::string
caseName(Kind kind, std::size_t minutes, std::size_t count, Target target)
{
    static const char *const kinds[] = {"diurnal", "google-shared",
                                        "request", "external"};
    static const char *const targets[] = {"below-one", "above-one",
                                          "near-zero", "unreachable"};
    return std::string(kinds[static_cast<int>(kind)]) +
           (minutes == kYear ? " year" : " day") + " tenants=" +
           std::to_string(count) + " target=" +
           targets[static_cast<int>(target)];
}

/**
 * 1..5 tenants of one kind: a day at every target, and a year at one
 * target per tenant count (rotating, so each kind meets every target
 * at full length).
 */
void
expectOracleGrid(Kind kind, std::uint64_t seed)
{
    for (const std::size_t minutes : {kDay, kYear}) {
        const auto traces = makeTraces(kind, minutes, seed);
        for (std::size_t count = 1; count <= traces.size(); ++count) {
            std::vector<Tenant> tenants = makeTenants(traces, count);
            std::vector<Tenant *> ptrs;
            for (Tenant &t : tenants)
                ptrs.push_back(&t);
            for (std::size_t j = 0; j < std::size(kTargets); ++j) {
                if (minutes == kYear &&
                    j != (count + static_cast<std::size_t>(kind)) %
                             std::size(kTargets))
                    continue;
                const Kilowatts target = targetFor(ptrs, kTargets[j]);
                const double want = oracleScaleFactor(ptrs, target);
                const double got = computeMeanPowerScaleFactor(ptrs, target);
                EXPECT_TRUE(sameBits(got, want))
                    << caseName(kind, minutes, count, kTargets[j])
                    << ": got " << got << ", oracle " << want;
            }
        }
    }
}

TEST(ScaleOracle, DiurnalBitIdentical)
{
    expectOracleGrid(Kind::Diurnal, 101);
}

TEST(ScaleOracle, GoogleStyleSharedTraceBitIdentical)
{
    expectOracleGrid(Kind::GoogleShared, 102);
}

TEST(ScaleOracle, RequestLevelBitIdentical)
{
    expectOracleGrid(Kind::Request, 103);
}

TEST(ScaleOracle, ExternalTracesBitIdentical)
{
    expectOracleGrid(Kind::External, 104);
}

TEST(ScaleOracle, UnreachableTargetSaturatesAtTheBracketTop)
{
    const auto traces = makeTraces(Kind::Diurnal, kDay, 105);
    std::vector<Tenant> tenants = makeTenants(traces, 2);
    std::vector<Tenant *> ptrs{&tenants[0], &tenants[1]};
    EXPECT_DOUBLE_EQ(computeMeanPowerScaleFactor(
                         ptrs, targetFor(ptrs, Target::Unreachable)),
                     64.0);
}

TEST(ParallelSetup, ScaleFactorBitsDoNotDependOnPoolSize)
{
    // Three year-long diurnal tenants, as the engine solves them, and
    // five one-day external ones (more tenants than pool threads).
    const struct
    {
        Kind kind;
        std::size_t minutes, count;
    } cases[] = {{Kind::Diurnal, kYear, 3}, {Kind::External, kDay, 5}};
    for (const auto &c : cases) {
        const auto traces = makeTraces(c.kind, c.minutes, 107);
        std::vector<Tenant> tenants = makeTenants(traces, c.count);
        std::vector<Tenant *> ptrs;
        for (Tenant &t : tenants)
            ptrs.push_back(&t);
        const Kilowatts target = targetFor(ptrs, Target::BelowOne);
        const double want = oracleScaleFactor(ptrs, target);
        for (const std::size_t threads : {1, 2, 4}) {
            util::ThreadPool::setGlobalThreads(threads);
            const double got = computeMeanPowerScaleFactor(ptrs, target);
            EXPECT_TRUE(sameBits(got, want))
                << caseName(c.kind, c.minutes, c.count, Target::BelowOne)
                << " threads=" << threads << ": got " << got << ", oracle "
                << want;
        }
    }
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}

TEST(MeanPowerKernel, EveryLaneMatchesTheScalarSum)
{
    // Traces of 1-3 samples expose every rounding of the per-sample
    // expression (a long sum absorbs most last-bit slips); one odd-length
    // trace covers the loop. Lanes clamp nothing, everything or part of
    // the trace; one is a NaN.
    Rng rng(106);
    const ServerSpec spec{Kilowatts(0.07), Kilowatts(0.21)};
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<double> samples(trial == 0 ? 1441 : 1 + trial % 3);
        for (double &s : samples)
            s = rng.uniform();
        const double servers = static_cast<double>(1 + trial % 13);
        const MeanPowerLanes factors{
            0.0, 0.5 * rng.uniform(), rng.uniform(), 1.0,
            1.0 + rng.uniform(), 7.0 * rng.uniform(), 1e300, std::nan("")};
        const MeanPowerLanes got = tenantMeanPower(
            samples, spec.idlePower.value(),
            (spec.peakPower - spec.idlePower).value(), servers, factors);
        for (std::size_t k = 0; k < kMeanPowerLanes; ++k) {
            double sum = 0.0;
            for (double u : samples) {
                const double scaled = std::clamp(u * factors[k], 0.0, 1.0);
                sum += oraclePowerAt(spec, scaled).value() * servers;
            }
            const double want = sum / static_cast<double>(samples.size());
            ASSERT_TRUE(sameBits(got[k], want))
                << "trial " << trial << " lane " << k << ": got " << got[k]
                << ", scalar " << want;
        }
    }
}

// The default scenario's factor, captured (as %a) before the multi-lane
// solve replaced the serial bisection. The traces feeding it hold these
// bits only without FMA contraction, the default ISA.
TEST(ScaleOracle, DefaultScenarioFactorsPinned)
{
#if defined(__FMA__)
    GTEST_SKIP() << "byte pins hold only without FMA contraction";
#endif
    const struct
    {
        std::uint64_t seed;
        double factor;
    } pins[] = {
        {1, 0x1.4bdfe09c7aeaap+0},
        {7, 0x1.4bc70585561acp+0},
        {42, 0x1.4ba5a1e090698p+0},
    };
    for (const auto &pin : pins) {
        auto config = core::SimulationConfig::paperDefault();
        config.seed = pin.seed;
        config.setupCache = std::make_shared<core::SetupCache>();
        core::Simulation sim(config, core::makeRandomPolicy(config, 0.0));
        const double factor = config.setupCache->scaleFactor(
            core::SetupCache::scaleFactorKey(config), [] {
                ADD_FAILURE() << "the simulation did not cache its factor";
                return 0.0;
            });
        EXPECT_TRUE(sameBits(factor, pin.factor))
            << "seed " << pin.seed << ": got " << std::hexfloat << factor
            << ", pinned " << pin.factor;
    }
}

} // namespace
} // namespace ecolo::power
