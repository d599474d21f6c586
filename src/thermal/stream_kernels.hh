/**
 * @file
 * The spatial GEMV of the streaming thermal recurrence.
 *
 * MatrixThermalModel's per-slot update is O(N modes) elementwise work
 * plus one O(N^2) matrix-vector product per rank. The product lives
 * here, in its own translation unit, because it is compiled as one body
 * per ISA (AVX-512, AVX2+FMA, baseline), picked once on first use.
 */

#ifndef ECOLO_THERMAL_STREAM_KERNELS_HH
#define ECOLO_THERMAL_STREAM_KERNELS_HH

#include <cstddef>

namespace ecolo::thermal::kernels {

/**
 * The streaming kernel's only O(N^2) step: rises[i] += sum_j s[j] *
 * ut[j * n + i] with the spatial factor stored transposed, so the inner
 * loop is independent contiguous adds (vectorizable under strict FP;
 * the row-wise reduction form is not). Each ISA body runs the same
 * per-lane math at its native vector width: the binary stays portable
 * while the hot loop uses the machine's full width. The AVX-512 and
 * AVX2+FMA bodies contract into FMA and agree bit for bit; the baseline
 * body rounds each product, which moves only sub-1e-9 bits. Runs on one
 * machine stay bit-deterministic.
 */
void accumulateColumnAxpy(const double *ut, const double *s, double *rises,
                          std::size_t n);

/** True when accumulateColumnAxpy runs an FMA body on this machine, false
 * when it runs the baseline body (or a non-x86/GCC fallback). */
bool columnAxpyFuses();

} // namespace ecolo::thermal::kernels

#endif // ECOLO_THERMAL_STREAM_KERNELS_HH
