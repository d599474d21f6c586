/** @file Unit tests for trace containers. */

#include <gtest/gtest.h>

#include "trace/utilization_trace.hh"

namespace ecolo::trace {
namespace {

TEST(UtilizationTrace, WrapsAroundTheEnd)
{
    UtilizationTrace t({0.1, 0.2, 0.3});
    EXPECT_DOUBLE_EQ(t.at(0), 0.1);
    EXPECT_DOUBLE_EQ(t.at(2), 0.3);
    EXPECT_DOUBLE_EQ(t.at(3), 0.1);
    EXPECT_DOUBLE_EQ(t.at(7), 0.2);
}

TEST(UtilizationTrace, NegativeIndexWraps)
{
    UtilizationTrace t({0.1, 0.2, 0.3});
    EXPECT_DOUBLE_EQ(t.at(-1), 0.3);
    EXPECT_DOUBLE_EQ(t.at(-3), 0.1);
}

TEST(UtilizationTrace, MeanAndPeak)
{
    UtilizationTrace t({0.0, 0.5, 1.0});
    EXPECT_DOUBLE_EQ(t.mean(), 0.5);
    EXPECT_DOUBLE_EQ(t.peak(), 1.0);
}

TEST(UtilizationTrace, ClampAll)
{
    UtilizationTrace t({0.1, 0.5, 0.9});
    t.clampAll(0.2, 0.8);
    EXPECT_DOUBLE_EQ(t[0], 0.2);
    EXPECT_DOUBLE_EQ(t[1], 0.5);
    EXPECT_DOUBLE_EQ(t[2], 0.8);
}

TEST(UtilizationTrace, EmptyProperties)
{
    UtilizationTrace t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.peak(), 0.0);
}

TEST(PowerTrace, WrapsAndAggregates)
{
    PowerTrace t({Kilowatts(1.0), Kilowatts(3.0)});
    EXPECT_DOUBLE_EQ(t.at(0).value(), 1.0);
    EXPECT_DOUBLE_EQ(t.at(3).value(), 3.0);
    EXPECT_DOUBLE_EQ(t.mean().value(), 2.0);
    EXPECT_DOUBLE_EQ(t.peak().value(), 3.0);
}

TEST(PowerTrace, ElementwiseSum)
{
    PowerTrace a({Kilowatts(1.0), Kilowatts(2.0)});
    PowerTrace b({Kilowatts(0.5), Kilowatts(0.5)});
    a += b;
    EXPECT_DOUBLE_EQ(a[0].value(), 1.5);
    EXPECT_DOUBLE_EQ(a[1].value(), 2.5);
}

TEST(PowerTraceDeathTest, MismatchedSumPanics)
{
    PowerTrace a({Kilowatts(1.0)});
    PowerTrace b({Kilowatts(1.0), Kilowatts(2.0)});
    EXPECT_DEATH(a += b, "different lengths");
}

TEST(UtilizationTraceDeathTest, RejectsOutOfRangeSamples)
{
    EXPECT_DEATH(UtilizationTrace({1.5}), "out of");
}

} // namespace
} // namespace ecolo::trace
