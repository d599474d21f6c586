/**
 * @file
 * Pinned report and state bytes: year-long runs whose Markdown reports
 * and saved simulation state must keep their exact bytes. Every path
 * that reaches a report (the slot loop, the tenant power model, the
 * thermal kernel, the policies) is covered by one FNV-1a hash per run,
 * so a change that moves a single bit of a reported figure fails here
 * even when every tolerance test passes. The report rounds every
 * figure, so each run also hashes the bytes Simulation::saveState
 * writes at its end: a last-bit drift in any state the run carries
 * (tenant power, thermal accumulators, the side channel's RNG) fails
 * the state hash even where the report hash holds.
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
#include "thermal/stream_kernels.hh"
#include "util/state_io.hh"

namespace ecolo::core {
namespace {

// The hashes hold for the default build only: a -march=native build may
// contract the engine's arithmetic into FMA. Sanitizer builds run the
// same thermal kernel body and render the same bytes.
#if defined(__FMA__)
#define ECOLO_SKIP_IF_CONTRACTED() \
    GTEST_SKIP() << "byte pins hold only without FMA contraction"
#else
#define ECOLO_SKIP_IF_CONTRACTED() (void)0
#endif

/** 64-bit FNV-1a over a byte string. */
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

/** A 365-day run's report, built as the CLI builds it, and its
 * saved end state. */
struct YearRun
{
    std::string report;
    std::string state;
};

/** The 365-day run at seed 7 with the policy's default parameter. */
YearRun
yearRun(const std::string &scenario_file, const std::string &policy)
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

    YearRun run;
    std::ostringstream report;
    writeMarkdownReport(report, config, sim.metrics(),
                        ReportInputs{policy, param, 365.0});
    run.report = report.str();
    std::ostringstream state;
    util::StateWriter writer(state);
    sim.saveState(writer);
    EXPECT_TRUE(writer.good());
    run.state = state.str();
    return run;
}

/**
 * The state hashes pin the bits of the thermal kernel's FMA bodies
 * (AVX-512, or AVX2 with FMA). A host without them runs the baseline
 * body, which rounds each product separately: the state moves in its
 * last bits while the rounded report holds, so there the test checks
 * the report hash only and says so as a skip.
 */
#define ECOLO_EXPECT_STATE_HASH(run, hash)                                  \
    do {                                                                    \
        if (!thermal::kernels::columnAxpyFuses())                           \
            GTEST_SKIP() << "report hash checked; the state hash is "       \
                            "pinned for the FMA thermal kernel bodies only"; \
        EXPECT_EQ(fnv1a((run).state), (hash));                              \
    } while (0)

TEST(ReportPins, PaperDefaultRandom)
{
    ECOLO_SKIP_IF_CONTRACTED();
    const YearRun run = yearRun("", "random");
    EXPECT_EQ(fnv1a(run.report), 0x043429a06579798fULL);
    ECOLO_EXPECT_STATE_HASH(run, 0x209fe16e1848fcaeULL);
}

TEST(ReportPins, PaperDefaultMyopic)
{
    ECOLO_SKIP_IF_CONTRACTED();
    const YearRun run = yearRun("", "myopic");
    EXPECT_EQ(fnv1a(run.report), 0x97b4c42dc9cbcad1ULL);
    ECOLO_EXPECT_STATE_HASH(run, 0x1ad0d661c5b1db19ULL);
}

TEST(ReportPins, PaperDefaultForesighted)
{
    ECOLO_SKIP_IF_CONTRACTED();
    const YearRun run = yearRun("", "foresighted");
    EXPECT_EQ(fnv1a(run.report), 0xc064a39df3280bbbULL);
    ECOLO_EXPECT_STATE_HASH(run, 0x0f7ab553c32550dbULL);
}

TEST(ReportPins, DegradedSiteMyopic)
{
    ECOLO_SKIP_IF_CONTRACTED();
    const YearRun run = yearRun("degraded_site.cfg", "myopic");
    EXPECT_EQ(fnv1a(run.report), 0x89c9bfd53478daceULL);
    ECOLO_EXPECT_STATE_HASH(run, 0xe775f7e8e7e37334ULL);
}

TEST(ReportPins, DegradedSiteStandby)
{
    ECOLO_SKIP_IF_CONTRACTED();
    const YearRun run = yearRun("degraded_site.cfg", "standby");
    EXPECT_EQ(fnv1a(run.report), 0xb7e8314c96a328caULL);
    ECOLO_EXPECT_STATE_HASH(run, 0x24a6350cb75105eeULL);
}

} // namespace
} // namespace ecolo::core
