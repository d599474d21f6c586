/** @file Unit tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "trace/generators.hh"
#include "util/sim_time.hh"
#include "util/stats.hh"

namespace ecolo::trace {
namespace {

TEST(DiurnalGenerator, ProducesRequestedLength)
{
    Rng rng(1);
    DiurnalTraceGenerator gen;
    const auto t = gen.generate(kMinutesPerDay, rng);
    EXPECT_EQ(t.size(), static_cast<std::size_t>(kMinutesPerDay));
}

TEST(DiurnalGenerator, SamplesInUnitRange)
{
    Rng rng(2);
    DiurnalTraceGenerator gen;
    const auto t = gen.generate(7 * kMinutesPerDay, rng);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 0.0);
        EXPECT_LE(t[i], 1.0);
    }
}

TEST(DiurnalGenerator, PeakHourIsHotterThanTrough)
{
    Rng rng(3);
    DiurnalTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    DiurnalTraceGenerator gen(params);
    const auto t = gen.generate(kMinutesPerDay, rng);
    const double peak = t[static_cast<std::size_t>(params.peakHour * 60)];
    const double trough =
        t[static_cast<std::size_t>(std::fmod(params.peakHour + 12.0, 24.0) *
                                   60)];
    EXPECT_GT(peak, trough + 0.2);
}

TEST(DiurnalGenerator, WeekendsAreLighter)
{
    Rng rng(4);
    DiurnalTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    params.weekendFactor = 0.7;
    DiurnalTraceGenerator gen(params);
    const auto t = gen.generate(7 * kMinutesPerDay, rng);
    // Compare the same minute on Friday (day 4) and Saturday (day 5).
    const std::size_t noon_friday = 4 * kMinutesPerDay + 720;
    const std::size_t noon_saturday = 5 * kMinutesPerDay + 720;
    EXPECT_GT(t[noon_friday], t[noon_saturday]);
}

TEST(DiurnalGenerator, DeterministicForSameSeed)
{
    DiurnalTraceGenerator gen;
    Rng rng1(9), rng2(9);
    const auto a = gen.generate(kMinutesPerDay, rng1);
    const auto b = gen.generate(kMinutesPerDay, rng2);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(DiurnalGenerator, BurstsRaiseTheMean)
{
    DiurnalTraceGenerator::Params quiet;
    quiet.burstsPerDay = 0.0;
    quiet.noiseSigma = 0.0;
    DiurnalTraceGenerator::Params bursty = quiet;
    bursty.burstsPerDay = 40.0;
    bursty.burstMagnitude = 0.2;
    Rng rng1(11), rng2(11);
    const auto a = DiurnalTraceGenerator(quiet).generate(
        7 * kMinutesPerDay, rng1);
    const auto b = DiurnalTraceGenerator(bursty).generate(
        7 * kMinutesPerDay, rng2);
    EXPECT_GT(b.mean(), a.mean() + 0.01);
}

TEST(GoogleStyleGenerator, SamplesInUnitRange)
{
    Rng rng(5);
    GoogleStyleTraceGenerator gen;
    const auto t = gen.generate(3 * kMinutesPerDay, rng);
    EXPECT_EQ(t.size(), static_cast<std::size_t>(3 * kMinutesPerDay));
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 0.0);
        EXPECT_LE(t[i], 1.0);
    }
}

TEST(GoogleStyleGenerator, VisitsMultiplePlateaus)
{
    Rng rng(6);
    GoogleStyleTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    params.diurnalAmplitude = 0.0;
    params.meanDwellMinutes = 60.0;
    GoogleStyleTraceGenerator gen(params);
    const auto t = gen.generate(2 * kMinutesPerDay, rng);
    EXPECT_GT(t.peak() - [&] {
        double lo = 1.0;
        for (std::size_t i = 0; i < t.size(); ++i)
            lo = std::min(lo, t[i]);
        return lo;
    }(), 0.15); // spans distinct levels
}

TEST(GoogleStyleGenerator, WeakerDiurnalThanDefault)
{
    Rng rng1(7), rng2(7);
    const auto diurnal =
        DiurnalTraceGenerator().generate(14 * kMinutesPerDay, rng1);
    const auto google =
        GoogleStyleTraceGenerator().generate(14 * kMinutesPerDay, rng2);

    // Correlate each trace with a 24h sinusoid; the diurnal one should
    // show much stronger daily periodicity.
    auto daily_correlation = [](const UtilizationTrace &t) {
        double num = 0.0;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const double phase = 2.0 * M_PI *
                                 static_cast<double>(i % kMinutesPerDay) /
                                 static_cast<double>(kMinutesPerDay);
            num += (t[i] - 0.5) * std::cos(phase - M_PI);
        }
        return std::abs(num) / static_cast<double>(t.size());
    };
    EXPECT_GT(daily_correlation(diurnal), daily_correlation(google));
}

} // namespace
} // namespace ecolo::trace

namespace ecolo::trace {
namespace {

TEST(RequestGenerator, SamplesInUnitRange)
{
    Rng rng(41);
    RequestTraceGenerator gen;
    const auto t = gen.generate(3 * kMinutesPerDay, rng);
    ASSERT_EQ(t.size(), static_cast<std::size_t>(3 * kMinutesPerDay));
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 0.0);
        EXPECT_LE(t[i], 1.0);
    }
}

TEST(RequestGenerator, DiurnalShape)
{
    Rng rng(43);
    RequestTraceGenerator::Params params;
    params.flashCrowdsPerDay = 0.0;
    RequestTraceGenerator gen(params);
    const auto t = gen.generate(kMinutesPerDay, rng);
    // Average around the 14:00 peak vs. the 02:00 trough.
    double peak = 0.0, trough = 0.0;
    for (int m = 0; m < 60; ++m) {
        peak += t[14 * 60 + m];
        trough += t[2 * 60 + m];
    }
    EXPECT_GT(peak, 1.8 * trough);
}

TEST(RequestGenerator, PoissonShotNoisePresent)
{
    // Unlike a flat trace, consecutive minutes at the same
    // diurnal phase differ because arrivals are Poisson.
    Rng rng(47);
    RequestTraceGenerator::Params params;
    params.flashCrowdsPerDay = 0.0;
    RequestTraceGenerator gen(params);
    const auto t = gen.generate(kMinutesPerDay, rng);
    ecolo::OnlineStats noon;
    for (int m = 0; m < 30; ++m)
        noon.add(t[12 * 60 + m]);
    EXPECT_GT(noon.stddev(), 0.0005);
    EXPECT_LT(noon.stddev(), 0.05); // shot noise, not chaos
}

TEST(RequestGenerator, FlashCrowdsRaiseLoad)
{
    Rng rng1(49), rng2(49);
    RequestTraceGenerator::Params quiet;
    quiet.flashCrowdsPerDay = 0.0;
    RequestTraceGenerator::Params crowded = quiet;
    crowded.flashCrowdsPerDay = 20.0;
    crowded.flashCrowdBoost = 0.5;
    const auto a =
        RequestTraceGenerator(quiet).generate(7 * kMinutesPerDay, rng1);
    const auto b =
        RequestTraceGenerator(crowded).generate(7 * kMinutesPerDay, rng2);
    EXPECT_GT(b.mean(), a.mean() * 1.05);
}

} // namespace
} // namespace ecolo::trace

namespace ecolo::trace {
namespace {

/** 64-bit FNV-1a over the raw bytes of every sample. */
std::uint64_t
fnv1a(const UtilizationTrace &t)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < t.size(); ++i) {
        unsigned char bytes[sizeof(double)];
        const double v = t[i];
        std::memcpy(bytes, &v, sizeof(v));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

// Year-long traces at fixed seeds must keep their exact bytes: the
// set-up cache, the scale solve and every report downstream read them.
// The hashes hold for builds without FMA contraction (the default ISA);
// a -march=native build may contract the generators' arithmetic.
#if defined(__FMA__)
#define ECOLO_SKIP_IF_CONTRACTED() \
    GTEST_SKIP() << "byte pins hold only without FMA contraction"
#else
#define ECOLO_SKIP_IF_CONTRACTED() (void)0
#endif

TEST(GeneratorPins, DiurnalYearBytes)
{
    ECOLO_SKIP_IF_CONTRACTED();
    Rng rng(2021);
    DiurnalTraceGenerator::Params params;
    params.peakHour = 13.6; // off the hour, as the engine staggers it
    EXPECT_EQ(fnv1a(DiurnalTraceGenerator(params).generate(kMinutesPerYear,
                                                           rng)),
              0x69bfbb8824d1bc5cULL);
}

TEST(GeneratorPins, GoogleStyleYearBytes)
{
    ECOLO_SKIP_IF_CONTRACTED();
    Rng rng(2022);
    EXPECT_EQ(fnv1a(GoogleStyleTraceGenerator().generate(kMinutesPerYear,
                                                         rng)),
              0x9f5436dc7a15a063ULL);
}

TEST(GeneratorPins, RequestYearBytes)
{
    ECOLO_SKIP_IF_CONTRACTED();
    Rng rng(2023);
    RequestTraceGenerator::Params params;
    params.peakHour = 14.4;
    EXPECT_EQ(fnv1a(RequestTraceGenerator(params).generate(kMinutesPerYear,
                                                           rng)),
              0x2f52eea4f12966d0ULL);
}

} // namespace
} // namespace ecolo::trace
