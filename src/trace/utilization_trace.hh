/**
 * @file
 * Utilization time series at one-minute resolution.
 *
 * Tenant workloads are represented as utilization traces (fraction of the
 * tenant's compute capacity in use, in [0, 1]); the power subsystem maps
 * utilization to electrical power through a server power model. Keeping the
 * two separated mirrors the paper's methodology (request-level logs ->
 * utilization -> validated server power models -> power trace).
 */

#ifndef ECOLO_TRACE_UTILIZATION_TRACE_HH
#define ECOLO_TRACE_UTILIZATION_TRACE_HH

#include <cstddef>
#include <vector>

#include "util/sim_time.hh"

namespace ecolo::trace {

/** Per-minute utilization series in [0, 1]. */
class UtilizationTrace
{
  public:
    UtilizationTrace() = default;
    explicit UtilizationTrace(std::vector<double> samples);

    /** Number of minutes covered. */
    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Utilization at minute t. Indices beyond the end wrap around, so a
     * one-year trace can drive arbitrarily long simulations.
     */
    double at(MinuteIndex t) const;

    double &operator[](std::size_t i) { return samples_[i]; }
    double operator[](std::size_t i) const { return samples_[i]; }

    double mean() const;
    double peak() const;

    const std::vector<double> &samples() const { return samples_; }
    std::vector<double> &samples() { return samples_; }

  private:
    std::vector<double> samples_;
};

} // namespace ecolo::trace

#endif // ECOLO_TRACE_UTILIZATION_TRACE_HH
