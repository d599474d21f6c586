#include "trace/utilization_trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ecolo::trace {

UtilizationTrace::UtilizationTrace(std::vector<double> samples)
    : samples_(std::move(samples))
{
    for (double s : samples_)
        ECOLO_ASSERT(s >= 0.0 && s <= 1.0 + 1e-9,
                     "utilization sample out of [0,1]: ", s);
}

double
UtilizationTrace::at(MinuteIndex t) const
{
    ECOLO_ASSERT(!samples_.empty(), "empty utilization trace");
    const auto n = static_cast<MinuteIndex>(samples_.size());
    if (t >= 0 && t < n) // the slot loop's case: no wrap, no division
        return samples_[static_cast<std::size_t>(t)];
    MinuteIndex i = t % n;
    if (i < 0)
        i += n;
    return samples_[static_cast<std::size_t>(i)];
}

double
UtilizationTrace::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
UtilizationTrace::peak() const
{
    double best = 0.0;
    for (double s : samples_)
        best = std::max(best, s);
    return best;
}

} // namespace ecolo::trace
