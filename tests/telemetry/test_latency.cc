/**
 * @file
 * TailLatency tests: exact nearest-rank quantiles while the raw-sample
 * buffer holds, Welford mean/jitter, input hygiene (NaN/negative
 * rejection), bucket-interpolated quantiles past the sample capacity,
 * and reset semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/latency.hh"

namespace ecolo::telemetry {
namespace {

TEST(TailLatency, EmptySnapshotIsAllZeros)
{
    TailLatency lat;
    const auto s = lat.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
    EXPECT_DOUBLE_EQ(s.jitter, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
    EXPECT_TRUE(s.exact);
}

TEST(TailLatency, ExactQuantilesWhileSamplesFit)
{
    TailLatency lat(1000);
    // 1..100 in a scrambled order; order must not matter.
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(static_cast<double>(i));
    std::mt19937 shuffle(7);
    std::shuffle(values.begin(), values.end(), shuffle);
    for (const double v : values)
        lat.record(v);

    const auto s = lat.snapshot();
    EXPECT_TRUE(s.exact);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    // Nearest-rank on sorted[round(q * (n-1))].
    EXPECT_DOUBLE_EQ(s.p50, 51.0);
    EXPECT_DOUBLE_EQ(s.p95, 95.0);
    EXPECT_DOUBLE_EQ(s.p99, 99.0);
    // Population stddev of 1..100.
    EXPECT_NEAR(s.jitter, 28.866, 0.01);
}

TEST(TailLatency, RejectsNanAndNegativeWithoutPoisoningStats)
{
    TailLatency lat;
    lat.record(10.0);
    lat.record(-1.0);
    lat.record(std::numeric_limits<double>::quiet_NaN());
    lat.record(30.0);
    const auto s = lat.snapshot();
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_DOUBLE_EQ(s.mean, 20.0);
    EXPECT_DOUBLE_EQ(s.min, 10.0);
    EXPECT_DOUBLE_EQ(s.max, 30.0);
}

TEST(TailLatency, BucketedQuantilesBoundTheErrorPastCapacity)
{
    // Tiny capacity forces the log-bucket path quickly.
    TailLatency lat(16);
    std::mt19937_64 gen(99);
    std::uniform_real_distribution<double> dist(100.0, 10000.0);
    std::vector<double> values;
    for (int i = 0; i < 4096; ++i)
        values.push_back(dist(gen));
    for (const double v : values)
        lat.record(v);

    const auto s = lat.snapshot();
    EXPECT_FALSE(s.exact);
    EXPECT_EQ(s.count, 4096u);

    std::sort(values.begin(), values.end());
    const auto exact_at = [&values](double q) {
        return values[static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1) + 0.5)];
    };
    // Base-2 buckets: the interpolated answer lands within the winning
    // bucket, so it is within a factor of 2 of the exact quantile.
    for (const auto &[got, q] :
         {std::pair{s.p50, 0.50}, {s.p95, 0.95}, {s.p99, 0.99}}) {
        const double want = exact_at(q);
        EXPECT_GE(got, want / 2.0) << "q=" << q;
        EXPECT_LE(got, want * 2.0) << "q=" << q;
    }
    // Quantiles stay inside the observed range.
    EXPECT_GE(s.p50, s.min);
    EXPECT_LE(s.p99, s.max);
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    // Mean/jitter are exact regardless of the sample buffer.
    const double sum =
        std::accumulate(values.begin(), values.end(), 0.0);
    EXPECT_NEAR(s.mean, sum / static_cast<double>(values.size()),
                1e-6 * s.mean);
}

TEST(TailLatency, ResetClearsEverything)
{
    TailLatency lat(4);
    for (int i = 0; i < 10; ++i)
        lat.record(5.0);
    EXPECT_EQ(lat.count(), 10u);
    lat.reset();
    EXPECT_EQ(lat.count(), 0u);
    const auto s = lat.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_TRUE(s.exact);
    lat.record(2.0);
    EXPECT_EQ(lat.snapshot().count, 1u);
    EXPECT_DOUBLE_EQ(lat.snapshot().p50, 2.0);
}

TEST(TailLatency, SingleSampleIsItsOwnTail)
{
    TailLatency lat;
    lat.record(123.0);
    const auto s = lat.snapshot();
    EXPECT_DOUBLE_EQ(s.p50, 123.0);
    EXPECT_DOUBLE_EQ(s.p95, 123.0);
    EXPECT_DOUBLE_EQ(s.p99, 123.0);
    EXPECT_DOUBLE_EQ(s.jitter, 0.0);
    EXPECT_DOUBLE_EQ(s.mean, 123.0);
}

TEST(TailLatency, RegistryTailDumpsFlatEntries)
{
    Registry reg;
    TailLatency &lat = reg.tail("serve.latency.batch", "_us");
    EXPECT_EQ(&reg.tail("serve.latency.batch", "_us"), &lat);
    lat.record(4.0);
    EXPECT_EQ(asTail(reg.find("serve.latency.batch")), &lat);

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"serve.latency.batch.count\":"
                        "{\"kind\":\"tail\",\"value\":1}"),
              std::string::npos);
    for (const char *field :
         {"mean", "jitter", "min", "max", "p50", "p95", "p99"}) {
        EXPECT_NE(json.find(std::string("\"serve.latency.batch.") + field +
                            "_us\":{\"kind\":\"tail\",\"value\":"),
                  std::string::npos)
            << field;
    }
    EXPECT_NE(json.find("\"serve.latency.batch.p99_us\":"
                        "{\"kind\":\"tail\",\"value\":4}"),
              std::string::npos);
}

} // namespace
} // namespace ecolo::telemetry
