/**
 * @file
 * Pinned report bytes: year-long runs whose Markdown reports must keep
 * their exact bytes. Every path that reaches a report (the slot loop,
 * the tenant power model, the thermal kernel, the policies) is covered
 * by one FNV-1a hash per run, so a change that moves a single bit of a
 * reported figure fails here even when every tolerance test passes.
 *
 * The runs are the ones `edgetherm_cli --set seed=7 --days 365 --report`
 * renders, with the policy's default parameter: random, myopic and
 * foresighted on the paper default, and myopic and standby on
 * scenarios/degraded_site.cfg, whose server failures and capping split
 * the tenants' servers into on and off groups.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"

namespace ecolo::core {
namespace {

// The hashes hold for the default build only: a -march=native build may
// contract the engine's arithmetic into FMA. (Sanitizer builds, which
// take the thermal kernel's baseline-ISA body, render the same bytes.)
#if defined(__FMA__)
#define ECOLO_SKIP_IF_CONTRACTED() \
    GTEST_SKIP() << "byte pins hold only without FMA contraction"
#else
#define ECOLO_SKIP_IF_CONTRACTED() (void)0
#endif

/** 64-bit FNV-1a over the report's bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The report of a 365-day run at seed 7, built as the CLI builds it. */
std::string
yearReport(const std::string &scenario_file, const std::string &policy)
{
    KeyValueConfig kv;
    if (!scenario_file.empty())
        kv = KeyValueConfig::parseFile(std::string(ECOLO_SCENARIO_DIR) +
                                       "/" + scenario_file);
    kv.set("seed", "7");
    auto config = SimulationConfig::paperDefault();
    applyScenario(kv, config);

    const double param = defaultPolicyParam(policy);
    auto made = tryMakePolicyByName(config, policy, param);
    EXPECT_TRUE(made.ok());
    Simulation sim(config, made.take());
    sim.runDays(365.0);

    std::ostringstream os;
    writeMarkdownReport(os, config, sim.metrics(),
                        ReportInputs{policy, param, 365.0});
    return os.str();
}

TEST(ReportPins, PaperDefaultRandom)
{
    ECOLO_SKIP_IF_CONTRACTED();
    EXPECT_EQ(fnv1a(yearReport("", "random")),
              0x043429a06579798fULL);
}

TEST(ReportPins, PaperDefaultMyopic)
{
    ECOLO_SKIP_IF_CONTRACTED();
    EXPECT_EQ(fnv1a(yearReport("", "myopic")),
              0x97b4c42dc9cbcad1ULL);
}

TEST(ReportPins, PaperDefaultForesighted)
{
    ECOLO_SKIP_IF_CONTRACTED();
    EXPECT_EQ(fnv1a(yearReport("", "foresighted")),
              0xc064a39df3280bbbULL);
}

TEST(ReportPins, DegradedSiteMyopic)
{
    ECOLO_SKIP_IF_CONTRACTED();
    EXPECT_EQ(fnv1a(yearReport("degraded_site.cfg", "myopic")),
              0x89c9bfd53478daceULL);
}

TEST(ReportPins, DegradedSiteStandby)
{
    ECOLO_SKIP_IF_CONTRACTED();
    EXPECT_EQ(fnv1a(yearReport("degraded_site.cfg", "standby")),
              0xb7e8314c96a328caULL);
}

} // namespace
} // namespace ecolo::core
