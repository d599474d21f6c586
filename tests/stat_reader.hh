/**
 * @file
 * Test-side stat reads by name from anything with a
 * `find(name) -> const telemetry::StatBase *` (a telemetry::Registry,
 * serve::Server, gateway::Gateway). A missing name fails the test, so a
 * misspelt one can never read as a fresh zero.
 */

#ifndef ECOLO_TESTS_STAT_READER_HH
#define ECOLO_TESTS_STAT_READER_HH

#include <gtest/gtest.h>

#include <string>

#include "telemetry/latency.hh"
#include "telemetry/stats.hh"

namespace ecolo::test {

/** A counter's, gauge's or scalar's value; NaN (and a failure) else. */
template <typename Source>
double
readStat(const Source &source, const std::string &name)
{
    const telemetry::StatBase *stat = source.find(name);
    EXPECT_NE(stat, nullptr) << "no stat named " << name;
    if (stat != nullptr && (stat->kind() == telemetry::StatKind::Tail ||
                            stat->kind() ==
                                telemetry::StatKind::Histogram))
        ADD_FAILURE() << name << " is not a single-valued stat";
    return telemetry::statValue(stat);
}

/** A tail stat's snapshot; all zeros (and a failure) when absent. */
template <typename Source>
telemetry::TailLatency::Snapshot
readTail(const Source &source, const std::string &name)
{
    const telemetry::TailLatency *tail =
        telemetry::asTail(source.find(name));
    EXPECT_NE(tail, nullptr) << "no tail stat named " << name;
    return tail != nullptr ? tail->snapshot()
                           : telemetry::TailLatency::Snapshot{};
}

} // namespace ecolo::test

#endif // ECOLO_TESTS_STAT_READER_HH
