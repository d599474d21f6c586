/**
 * @file
 * The spatial GEMV of the streaming thermal recurrence.
 *
 * MatrixThermalModel's per-slot update is O(N modes) elementwise work
 * plus one O(N^2) matrix-vector product per rank. The product lives
 * here, in its own translation unit, because it is compiled as several
 * ISA clones (function multi-versioning) dispatched once at load time.
 */

#ifndef ECOLO_THERMAL_STREAM_KERNELS_HH
#define ECOLO_THERMAL_STREAM_KERNELS_HH

#include <cstddef>

namespace ecolo::thermal::kernels {

/**
 * The streaming kernel's only O(N^2) step: rises[i] += sum_j s[j] *
 * ut[j * n + i] with the spatial factor stored transposed, so the inner
 * loop is independent contiguous adds (vectorizable under strict FP;
 * the row-wise reduction form is not). Function multi-versioning
 * compiles wider-vector clones next to the baseline-ISA default and
 * dispatches once at load time: the binary stays portable while the hot
 * loop uses the machine's full vector width. Contraction into FMA
 * changes only sub-1e-9 rounding; runs on one machine stay
 * bit-deterministic.
 */
void accumulateColumnAxpy(const double *ut, const double *s, double *rises,
                          std::size_t n);

} // namespace ecolo::thermal::kernels

#endif // ECOLO_THERMAL_STREAM_KERNELS_HH
