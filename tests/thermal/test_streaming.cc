/**
 * @file
 * Tests for the streaming recurrent thermal kernel: exponential-mode
 * fitting (Prony), year-long equivalence against the dense reference,
 * Auto's dense fallback when the fit misses tolerance, and kernel-aware
 * checkpointing.
 */

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "power/layout.hh"
#include "thermal/factorization.hh"
#include "thermal/heat_matrix.hh"
#include "util/state_io.hh"

namespace {

using namespace ecolo;
using namespace ecolo::thermal;

power::DataCenterLayout
smallLayout()
{
    power::DataCenterLayout::Params params;
    params.numRacks = 2;
    params.serversPerRack = 6;
    return power::DataCenterLayout(params);
}

/** The analytic temporal kernel: increments of 1 - exp(-t/T). */
std::vector<double>
analyticKernel(double rise_minutes, std::size_t horizon)
{
    std::vector<double> kernel(horizon);
    for (std::size_t tau = 0; tau < horizon; ++tau) {
        const double t0 = static_cast<double>(tau);
        kernel[tau] = std::exp(-t0 / rise_minutes) -
                      std::exp(-(t0 + 1.0) / rise_minutes);
    }
    return kernel;
}

/** Rank-1 tensor with the analytic spatial gains and a chosen kernel. */
HeatDistributionMatrix
rankOneMatrix(const std::vector<double> &kernel)
{
    const auto lay = smallLayout();
    const std::size_t n = lay.numServers();
    const auto base = HeatDistributionMatrix::analyticDefault(
        lay, HeatDistributionMatrix::AnalyticParams(), kernel.size());
    HeatDistributionMatrix matrix(n, kernel.size());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t tau = 0; tau < kernel.size(); ++tau)
                matrix.coeff(i, j, tau) = base.steadyGain(i, j) * kernel[tau];
    return matrix;
}

/** Deterministic pseudo-random power schedule (no RNG dependency). */
class ScheduleGenerator
{
  public:
    explicit ScheduleGenerator(std::size_t num_servers)
        : powers_(num_servers, Kilowatts(0.0))
    {
    }

    const std::vector<Kilowatts> &next()
    {
        for (auto &p : powers_) {
            state_ = state_ * 6364136223846793005ULL +
                     1442695040888963407ULL;
            const double u =
                static_cast<double>(state_ >> 11) * 0x1.0p-53;
            // Mostly idle with occasional near-full-power bursts, like an
            // attack campaign riding on a diurnal tenant load.
            p = Kilowatts(u > 0.9 ? 0.45 + 0.3 * u : 0.05 + 0.25 * u);
        }
        return powers_;
    }

  private:
    std::uint64_t state_ = 0x853c49e6748fea9bULL;
    std::vector<Kilowatts> powers_;
};

// ---------------------------------------------------------------------------
// Exponential-mode fitting (Prony).

TEST(ExponentialFit, AnalyticKernelIsOneExactMode)
{
    // k[tau] = e^(-tau/T) - e^(-(tau+1)/T) = (1 - e^(-1/T)) e^(-tau/T):
    // exactly one mode with decay e^(-1/T), so Prony is machine-exact.
    const double rise = 3.0;
    const auto fit = fitExponentialModes(analyticKernel(rise, 10), 3, 1e-12);
    ASSERT_EQ(fit.modes.size(), 1u);
    EXPECT_NEAR(fit.modes[0].decay, std::exp(-1.0 / rise), 1e-12);
    EXPECT_NEAR(fit.modes[0].weight, 1.0 - std::exp(-1.0 / rise), 1e-12);
    EXPECT_LT(fit.relError, 1e-12);
}

TEST(ExponentialFit, TwoModeSumRecoveredExactly)
{
    std::vector<double> values(10);
    for (std::size_t tau = 0; tau < values.size(); ++tau) {
        const auto t = static_cast<double>(tau);
        values[tau] = 0.7 * std::pow(0.9, t) + 0.3 * std::pow(0.45, t);
    }
    const auto fit = fitExponentialModes(values, 3, 1e-12);
    ASSERT_EQ(fit.modes.size(), 2u);
    EXPECT_LT(fit.relError, 1e-10);
    const double lo = std::min(fit.modes[0].decay, fit.modes[1].decay);
    const double hi = std::max(fit.modes[0].decay, fit.modes[1].decay);
    EXPECT_NEAR(lo, 0.45, 1e-9);
    EXPECT_NEAR(hi, 0.90, 1e-9);
}

TEST(ExponentialFit, ZeroVectorFitsWithZeroModes)
{
    const auto fit =
        fitExponentialModes(std::vector<double>(10, 0.0), 3, 1e-12);
    EXPECT_TRUE(fit.modes.empty());
    EXPECT_EQ(fit.relError, 0.0);
}

TEST(ExponentialFit, NonExponentialShapeReportsResidual)
{
    // 1/t is not a short exponential sum: the fit must admit a real
    // residual rather than claim success.
    std::vector<double> values(10);
    for (std::size_t tau = 0; tau < values.size(); ++tau)
        values[tau] = 1.0 / static_cast<double>(tau + 1);
    const auto fit = fitExponentialModes(values, 3, 1e-12);
    EXPECT_GT(fit.relError, 1e-9);
    EXPECT_LT(fit.relError, 1.0);
}

// ---------------------------------------------------------------------------
// Kernel selection.

TEST(StreamingModel, AnalyticAutoSelectsStreamingKernel)
{
    MatrixThermalModel model(
        HeatDistributionMatrix::analyticDefault(smallLayout()));
    EXPECT_EQ(model.activeKernel(), KernelMode::Streaming);
    EXPECT_EQ(model.factorizationRank(), 1u);
    EXPECT_GE(model.streamingModeCount(), 1u);
}

TEST(StreamingModel, PoorFitFallsBackToDense)
{
    // A rank-1 tensor whose temporal kernel is 1/t: factorizes exactly,
    // but no 3-term exponential sum reaches the streaming tolerance, so
    // Auto falls back to the dense oracle and matches it bit for bit.
    std::vector<double> kernel(10);
    for (std::size_t tau = 0; tau < kernel.size(); ++tau)
        kernel[tau] = 1.0 / static_cast<double>(tau + 1);
    auto matrix = rankOneMatrix(kernel);

    MatrixThermalModel dense(matrix, KernelMode::Dense);
    MatrixThermalModel chosen(std::move(matrix), KernelMode::Auto);
    ASSERT_EQ(chosen.activeKernel(), KernelMode::Dense);
    EXPECT_EQ(chosen.streamingModeCount(), 0u);
    EXPECT_EQ(chosen.factorizationRank(), 0u);

    ScheduleGenerator schedule(dense.numServers());
    std::vector<double> dense_rises, chosen_rises;
    for (int m = 0; m < 30; ++m) {
        const auto &powers = schedule.next();
        dense.pushPowers(powers);
        chosen.pushPowers(powers);
        dense.computeAllRises(dense_rises);
        chosen.computeAllRises(chosen_rises);
        ASSERT_EQ(dense_rises, chosen_rises);
    }
}

TEST(StreamingModel, KernelModeNamesRoundTrip)
{
    for (KernelMode mode : {KernelMode::Auto, KernelMode::Dense}) {
        KernelMode parsed = KernelMode::Streaming;
        ASSERT_TRUE(parseKernelMode(kernelModeName(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    // Only auto and dense are requestable: streaming is what Auto
    // resolves to, and the factorized kernel is gone.
    for (const char *junk : {"factorized", "streaming", "warp-drive"}) {
        KernelMode untouched = KernelMode::Dense;
        EXPECT_FALSE(parseKernelMode(junk, untouched)) << junk;
        EXPECT_EQ(untouched, KernelMode::Dense);
    }
}

// ---------------------------------------------------------------------------
// Numerical equivalence against the dense reference.

TEST(StreamingModel, MatchesDenseOverYearLongRandomSchedule)
{
    // The acceptance bound for the exact-fit case: the analytic kernel is
    // one machine-exact mode, so a full simulated year of the recurrence
    // (525600 pushes) must stay within 1e-9 C of the dense convolution.
    // The tail subtraction uses the exact departing ring slot, so there
    // is no drift term -- only rounding, which the lambda < 1 contraction
    // keeps bounded.
    auto matrix = HeatDistributionMatrix::analyticDefault(smallLayout());
    MatrixThermalModel dense(matrix, KernelMode::Dense);
    MatrixThermalModel stream(std::move(matrix), KernelMode::Auto);
    ASSERT_EQ(stream.activeKernel(), KernelMode::Streaming);

    ScheduleGenerator schedule(dense.numServers());
    std::vector<double> dense_rises, stream_rises;
    double worst = 0.0;
    const std::size_t year_minutes = 365 * 24 * 60;
    for (std::size_t m = 0; m < year_minutes; ++m) {
        const auto &powers = schedule.next();
        dense.pushPowers(powers);
        stream.pushPowers(powers);
        // The dense walk is the expensive side; sampling it on a stride
        // coprime to the horizon still visits every ring phase.
        if (m % 37 != 0 && m + 1 != year_minutes)
            continue;
        dense.computeAllRises(dense_rises);
        stream.computeAllRises(stream_rises);
        ASSERT_EQ(dense_rises.size(), stream_rises.size());
        for (std::size_t i = 0; i < dense_rises.size(); ++i)
            worst = std::max(worst,
                             std::abs(dense_rises[i] - stream_rises[i]));
    }
    EXPECT_LT(worst, 1e-9);
}

TEST(StreamingModel, InexactFitStaysWithinLooseBound)
{
    // Perturb the analytic kernel so the exponential fit is good but not
    // exact (residual above the default 1e-9 gate). Admitted under a
    // loosened tolerance, the streaming rises must stay within the 1e-6 C
    // acceptance bound of the dense reference.
    auto kernel = analyticKernel(3.0, 10);
    for (std::size_t tau = 0; tau < kernel.size(); ++tau)
        kernel[tau] += 1e-8 * std::sin(static_cast<double>(tau) * 1.7);
    auto matrix = rankOneMatrix(kernel);

    FactorizationOptions loose;
    loose.streamingTolerance = 1e-6;
    MatrixThermalModel dense(matrix, KernelMode::Dense);
    MatrixThermalModel stream(std::move(matrix), KernelMode::Auto, loose);
    ASSERT_EQ(stream.activeKernel(), KernelMode::Streaming);

    ScheduleGenerator schedule(dense.numServers());
    std::vector<double> dense_rises, stream_rises;
    double worst = 0.0;
    for (std::size_t m = 0; m < 60 * 24 * 30; ++m) {
        const auto &powers = schedule.next();
        dense.pushPowers(powers);
        stream.pushPowers(powers);
        if (m % 13 != 0)
            continue;
        dense.computeAllRises(dense_rises);
        stream.computeAllRises(stream_rises);
        for (std::size_t i = 0; i < dense_rises.size(); ++i)
            worst = std::max(worst,
                             std::abs(dense_rises[i] - stream_rises[i]));
    }
    EXPECT_LT(worst, 1e-6);
}

TEST(StreamingModel, ResetClearsRecurrenceState)
{
    auto matrix = HeatDistributionMatrix::analyticDefault(smallLayout());
    MatrixThermalModel model(std::move(matrix), KernelMode::Auto);
    ASSERT_EQ(model.activeKernel(), KernelMode::Streaming);

    ScheduleGenerator schedule(model.numServers());
    for (int m = 0; m < 50; ++m)
        model.pushPowers(schedule.next());
    EXPECT_GT(model.maxInletRise().value(), 0.0);

    model.reset();
    std::vector<double> rises;
    model.computeAllRises(rises);
    for (double r : rises)
        EXPECT_EQ(r, 0.0);
    EXPECT_EQ(model.maxInletRise().value(), 0.0);
}

// ---------------------------------------------------------------------------
// Checkpointing under the streaming kernel.

TEST(StreamingCheckpoint, ModelRoundTripContinuesBitIdentically)
{
    const auto matrix =
        HeatDistributionMatrix::analyticDefault(smallLayout());
    MatrixThermalModel original(matrix, KernelMode::Auto);
    ASSERT_EQ(original.activeKernel(), KernelMode::Streaming);

    ScheduleGenerator warmup(original.numServers());
    for (int m = 0; m < 500; ++m)
        original.pushPowers(warmup.next());

    std::stringstream state;
    util::StateWriter writer(state);
    original.saveState(writer);
    ASSERT_TRUE(writer.good());

    MatrixThermalModel resumed(matrix, KernelMode::Auto);
    util::StateReader reader(state);
    resumed.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().error().describe();

    // Continue both with identical inputs: every rise must be the exact
    // same bit pattern (the recurrence never replays history).
    ScheduleGenerator tail_a(original.numServers());
    ScheduleGenerator tail_b(original.numServers());
    std::vector<double> rises_a, rises_b;
    for (int m = 0; m < 100; ++m) {
        original.pushPowers(tail_a.next());
        resumed.pushPowers(tail_b.next());
        original.computeAllRises(rises_a);
        resumed.computeAllRises(rises_b);
        ASSERT_EQ(rises_a, rises_b);
    }
}

TEST(StreamingCheckpoint, KernelModeMismatchRejected)
{
    const auto matrix =
        HeatDistributionMatrix::analyticDefault(smallLayout());
    MatrixThermalModel stream(matrix, KernelMode::Auto);
    ASSERT_EQ(stream.activeKernel(), KernelMode::Streaming);
    ScheduleGenerator schedule(stream.numServers());
    for (int m = 0; m < 20; ++m)
        stream.pushPowers(schedule.next());

    std::stringstream state;
    util::StateWriter writer(state);
    stream.saveState(writer);
    ASSERT_TRUE(writer.good());

    MatrixThermalModel dense(matrix, KernelMode::Dense);
    util::StateReader reader(state);
    dense.loadState(reader);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().error().code, util::ErrorCode::StateError);
    EXPECT_NE(reader.status().error().message.find("kernel mode mismatch"),
              std::string::npos);
}

TEST(StreamingCheckpoint, RetiredFactorizedKernelIdRejected)
{
    // Kernel id 2 belonged to the deleted factorized kernel. A section
    // that carries it must fail to load under either live kernel rather
    // than be misread.
    const auto matrix =
        HeatDistributionMatrix::analyticDefault(smallLayout());
    for (KernelMode mode : {KernelMode::Auto, KernelMode::Dense}) {
        std::stringstream state;
        util::StateWriter writer(state);
        writer.tag("THS2");
        writer.u32(2);
        writer.u64(matrix.horizon());
        writer.u64(matrix.numServers());
        ASSERT_TRUE(writer.good());

        MatrixThermalModel model(matrix, mode);
        util::StateReader reader(state);
        model.loadState(reader);
        ASSERT_FALSE(reader.ok()) << kernelModeName(mode);
        EXPECT_EQ(reader.status().error().code,
                  util::ErrorCode::StateError);
        EXPECT_NE(reader.status().error().message.find("'unknown' kernel"),
                  std::string::npos);
    }
}

TEST(StreamingCheckpoint, OutOfRangeRingHeadRejected)
{
    // A ring head at or past the horizon, or more filled slots than the
    // horizon holds, would send every later push past the history ring.
    // Patch both into a saved section: tag, kernel id, two shape words,
    // then the history vector (length word and samples), head, filled.
    const auto matrix =
        HeatDistributionMatrix::analyticDefault(smallLayout());
    const std::uint64_t horizon = matrix.horizon();
    const std::size_t head_at =
        4 + 4 + 8 + 8 + 8 + 8 * horizon * matrix.numServers();
    const struct
    {
        std::uint64_t head, filled;
    } patches[] = {{horizon, 1}, {horizon + 7, horizon}, {0, horizon + 1}};
    for (KernelMode mode : {KernelMode::Auto, KernelMode::Dense}) {
        MatrixThermalModel model(matrix, mode);
        ScheduleGenerator schedule(model.numServers());
        for (int m = 0; m < 20; ++m)
            model.pushPowers(schedule.next());
        std::stringstream saved;
        util::StateWriter writer(saved);
        model.saveState(writer);
        ASSERT_TRUE(writer.good());
        const std::string bytes = saved.str();
        {
            std::stringstream intact(bytes);
            util::StateReader reader(intact);
            model.loadState(reader);
            ASSERT_TRUE(reader.ok()) << reader.status().error().describe();
        }
        for (const auto &patch : patches) {
            std::string patched = bytes;
            std::memcpy(&patched[head_at], &patch.head, 8);
            std::memcpy(&patched[head_at + 8], &patch.filled, 8);
            std::stringstream state(patched);
            util::StateReader reader(state);
            model.loadState(reader);
            ASSERT_FALSE(reader.ok())
                << kernelModeName(mode) << " head " << patch.head
                << " filled " << patch.filled;
            EXPECT_EQ(reader.status().error().code,
                      util::ErrorCode::StateError);
            EXPECT_NE(reader.status().error().message.find("out of range"),
                      std::string::npos);
            // The failed load leaves the model as it was, so a push
            // stays inside the ring.
            model.pushPowers(schedule.next());
        }
    }
}

TEST(StreamingCheckpoint, SimulationResumesBitIdenticallyUnderStreaming)
{
    auto config = core::SimulationConfig::paperDefault();
    config.seed = 4242;
    const auto make_policy = [&] {
        return core::makeMyopicPolicy(config, Kilowatts(7.4));
    };
    const auto tail = [](core::Simulation &sim, MinuteIndex minutes) {
        std::vector<double> values;
        sim.setMinuteCallback([&](const core::MinuteRecord &r) {
            values.push_back(r.maxInlet.value());
            values.push_back(r.meteredTotal.value());
            values.push_back(r.batterySoc);
        });
        sim.run(minutes);
        return values;
    };

    core::Simulation reference(config, make_policy());
    ASSERT_EQ(reference.thermalEnvironment().matrixModel().activeKernel(),
              KernelMode::Streaming);
    reference.run(600);
    const auto expected = tail(reference, 600);

    std::stringstream checkpoint;
    {
        core::Simulation first(config, make_policy());
        first.run(600);
        util::StateWriter writer(checkpoint);
        writer.header();
        first.saveState(writer);
        ASSERT_TRUE(writer.good());
    }
    core::Simulation resumed(config, make_policy());
    util::StateReader reader(checkpoint);
    reader.header();
    resumed.loadState(reader);
    ASSERT_TRUE(reader.ok()) << reader.status().error().describe();
    EXPECT_EQ(resumed.now(), 600);
    EXPECT_EQ(tail(resumed, 600), expected);
}

TEST(StreamingCheckpoint, CrossKernelSimulationCheckpointRejected)
{
    auto config = core::SimulationConfig::paperDefault();
    config.seed = 4242;

    std::stringstream checkpoint;
    {
        core::Simulation sim(
            config, core::makeMyopicPolicy(config, Kilowatts(7.4)));
        sim.run(100);
        util::StateWriter writer(checkpoint);
        writer.header();
        sim.saveState(writer);
        ASSERT_TRUE(writer.good());
    }

    auto dense_config = config;
    dense_config.thermalMode = KernelMode::Dense;
    core::Simulation resumed(
        dense_config,
        core::makeMyopicPolicy(dense_config, Kilowatts(7.4)));
    util::StateReader reader(checkpoint);
    reader.header();
    resumed.loadState(reader);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().error().code, util::ErrorCode::StateError);
    EXPECT_NE(reader.status().error().message.find("kernel"),
              std::string::npos);
}

} // namespace
