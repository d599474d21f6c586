/**
 * @file
 * The pass behind computeMeanPowerScaleFactor: one walk over a tenant's
 * trace that scores several candidate scale factors at once.
 */

#ifndef ECOLO_POWER_MEAN_POWER_KERNEL_HH
#define ECOLO_POWER_MEAN_POWER_KERNEL_HH

#include <array>
#include <cstddef>
#include <span>

namespace ecolo::power {

/** Candidate scale factors one pass scores. */
inline constexpr std::size_t kMeanPowerLanes = 8;

using MeanPowerLanes = std::array<double, kMeanPowerLanes>;

/**
 * For each factor f in `factors`, the tenant's mean power
 *
 *     sum_i (idle_kw + dynamic_kw * clamp(samples[i] * f, 0, 1)) * servers
 *     -------------------------------------------------------------------
 *                             samples.size()
 *
 * with the sum taken in sample order. Every lane has exactly the bits of
 * the scalar loop over ServerSpec::powerAt on the baseline ISA: the lanes
 * share the loop but not a single operation, and the TU is built without
 * FMA contraction. Allocates nothing.
 */
MeanPowerLanes tenantMeanPower(std::span<const double> samples,
                               double idle_kw, double dynamic_kw,
                               double servers,
                               const MeanPowerLanes &factors);

} // namespace ecolo::power

#endif // ECOLO_POWER_MEAN_POWER_KERNEL_HH
