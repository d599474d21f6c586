#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "telemetry/stats.hh"

namespace {

using namespace ecolo::telemetry;

TEST(StatName, Validation)
{
    EXPECT_TRUE(Registry::validName("engine.minutes"));
    EXPECT_TRUE(Registry::validName("engine.emergency.declared"));
    EXPECT_TRUE(Registry::validName("profile.pool.task_us"));
    EXPECT_TRUE(Registry::validName("sidechannel.estimate_error_kw"));
    EXPECT_TRUE(Registry::validName("a"));
    EXPECT_TRUE(Registry::validName("a-b.c_d.E9"));

    EXPECT_FALSE(Registry::validName(""));
    EXPECT_FALSE(Registry::validName("."));
    EXPECT_FALSE(Registry::validName(".engine"));
    EXPECT_FALSE(Registry::validName("engine."));
    EXPECT_FALSE(Registry::validName("engine..minutes"));
    EXPECT_FALSE(Registry::validName("engine minutes"));
    EXPECT_FALSE(Registry::validName("engine/minutes"));
    EXPECT_FALSE(Registry::validName("engine:minutes"));
}

TEST(Registry, SameNameSameKindSharesInstance)
{
    Registry reg;
    Counter &a = reg.counter("engine.minutes");
    Counter &b = reg.counter("engine.minutes");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindCollisionPanics)
{
    Registry reg;
    reg.counter("engine.minutes");
    EXPECT_DEATH(reg.gauge("engine.minutes"), "stat name collision");
}

TEST(Registry, InvalidNamePanics)
{
    Registry reg;
    EXPECT_DEATH(reg.counter("not a name"), "");
}

TEST(Registry, FindAndKinds)
{
    Registry reg;
    reg.counter("a.counter");
    reg.gauge("a.gauge");
    reg.histogram("a.histogram");
    EXPECT_EQ(reg.size(), 3u);
    ASSERT_NE(reg.find("a.counter"), nullptr);
    EXPECT_EQ(reg.find("a.counter")->kind(), StatKind::Counter);
    EXPECT_EQ(reg.find("a.gauge")->kind(), StatKind::Gauge);
    EXPECT_EQ(reg.find("a.histogram")->kind(), StatKind::Histogram);
    EXPECT_EQ(reg.find("missing"), nullptr);
}

TEST(Histogram, BucketEdges)
{
    // Bucket 0 holds [0, 1); bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(TelemetryHistogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(0.5), 0u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(0.999), 0u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(1.0), 1u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(1.999), 1u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(2.0), 2u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(4.0), 3u);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(1024.0), 11u);
    // The top bucket absorbs everything larger, including +inf.
    EXPECT_EQ(TelemetryHistogram::bucketIndex(1e300),
              TelemetryHistogram::kNumBuckets - 1);
    EXPECT_EQ(TelemetryHistogram::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              TelemetryHistogram::kNumBuckets - 1);

    for (std::size_t i = 0; i + 1 < TelemetryHistogram::kNumBuckets; ++i) {
        EXPECT_EQ(TelemetryHistogram::bucketIndex(
                      TelemetryHistogram::bucketLo(i)),
                  i)
            << "bucket " << i;
    }
}

TEST(Histogram, AddAndSummaries)
{
    TelemetryHistogram h("test.h");
    h.add(0.0);
    h.add(1.0);
    h.add(3.0);
    h.add(1000.0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.rejected(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 1004.0);
    EXPECT_DOUBLE_EQ(h.mean(), 251.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(10), 1u); // [512, 1024)
}

TEST(Histogram, RejectsNanAndNegative)
{
    TelemetryHistogram h("test.h");
    h.add(std::nan(""));
    h.add(-1.0);
    h.add(5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.rejected(), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 5.0);
}

TEST(Histogram, InfinityCountedNotSummedAsFinite)
{
    TelemetryHistogram h("test.h");
    h.add(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.bucketCount(TelemetryHistogram::kNumBuckets - 1), 1u);
}

TEST(Registry, JsonDumpIsWellFormedEnough)
{
    Registry reg;
    reg.counter("engine.minutes").inc(7);
    reg.gauge("battery.soc").set(0.25);
    reg.histogram("profile.x_us").add(12.0);

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\":\"edgetherm-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"engine.minutes\""), std::string::npos);
    EXPECT_NE(json.find("\"battery.soc\""), std::string::npos);
    EXPECT_NE(json.find("\"profile.x_us\""), std::string::npos);

    // Balanced braces/brackets outside strings -> parseable shape.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(Registry, MergedJsonDumpSortsAndFirstRegistryWins)
{
    Registry own;
    Registry process;
    own.counter("b.shared").inc(2);
    process.counter("b.shared").inc(9);
    process.gauge("a.first").set(1.5);
    Gauge &active = own.gauge("c.active");
    active.add(3.0);
    active.add(-1.0);

    std::ostringstream os;
    Registry::dumpJson(os, {&own, &process});
    const std::string json = os.str();
    EXPECT_NE(json.find("\"b.shared\":{\"kind\":\"counter\",\"value\":2}"),
              std::string::npos);
    EXPECT_EQ(json.find("\"value\":9"), std::string::npos);
    EXPECT_NE(json.find("\"c.active\":{\"kind\":\"gauge\",\"value\":2}"),
              std::string::npos);
    EXPECT_LT(json.find("\"a.first\""), json.find("\"b.shared\""));
    EXPECT_LT(json.find("\"b.shared\""), json.find("\"c.active\""));
}

TEST(Registry, ResetValuesKeepsNames)
{
    Registry reg;
    reg.counter("a.b").inc(9);
    reg.resetValues();
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.counter("a.b").value(), 0u);
}

} // namespace
