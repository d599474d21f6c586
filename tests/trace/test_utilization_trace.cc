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

TEST(UtilizationTrace, EmptyProperties)
{
    UtilizationTrace t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.peak(), 0.0);
}

TEST(UtilizationTraceDeathTest, RejectsOutOfRangeSamples)
{
    EXPECT_DEATH(UtilizationTrace({1.5}), "out of");
}

} // namespace
} // namespace ecolo::trace
