#include "thermal/stream_kernels.hh"

namespace ecolo::thermal::kernels {

#if defined(__GNUC__) || defined(__clang__)

/** 8-wide double vector; on ISAs narrower than 512 bits the compiler
 * lowers each op to several native-width ops, lane math unchanged. */
typedef double Vec8 __attribute__((vector_size(64)));

// The helpers always inline into the clones below, so the by-value
// vector ABI the -Wpsabi warning is about never crosses a real call.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace {

__attribute__((always_inline)) inline Vec8
loadVec8(const double *p)
{
    Vec8 v;
    __builtin_memcpy(&v, p, sizeof(v)); // unaligned vector load
    return v;
}

__attribute__((always_inline)) inline void
storeVec8(double *p, Vec8 v)
{
    __builtin_memcpy(p, &v, sizeof(v));
}

} // namespace

// Multiversioning emits an IFUNC whose resolver gcc instruments like
// any other function; under TSan/ASan that resolver calls into the
// sanitizer runtime during IRELATIVE relocation, before the runtime's
// TLS exists, and the process segfaults at load. Sanitizer builds take
// the default-ISA body instead — they measure races, not throughput.
#if defined(__x86_64__) && !defined(__clang__) \
        && !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define ECOLO_KERNEL_CLONES \
    __attribute__((target_clones("avx512f", "avx2,fma", "default")))
#else
#define ECOLO_KERNEL_CLONES
#endif

ECOLO_KERNEL_CLONES
void
accumulateColumnAxpy(const double *ut, const double *s, double *rises,
                     std::size_t n)
{
    // Register blocking: an 8-row block of the output accumulates in
    // four explicit vector registers for the whole column sweep, so
    // rises[] is touched once per block instead of once per column
    // group, and the four independent chains hide FMA latency. The
    // explicit vector type pins the lowering -- GCC's auto-vectorizer
    // scalarizes the equivalent array form. Per-lane math and the final
    // chain association are fixed, so results do not depend on n or on
    // which clone the resolver picks being re-lowered differently.
    constexpr std::size_t kBlock = 8;
    std::size_t i0 = 0;
    for (; i0 + kBlock <= n; i0 += kBlock) {
        Vec8 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const double *c0 = &ut[j * n + i0];
            const double *c1 = c0 + n;
            const double *c2 = c1 + n;
            const double *c3 = c2 + n;
            acc0 += s[j] * loadVec8(c0);
            acc1 += s[j + 1] * loadVec8(c1);
            acc2 += s[j + 2] * loadVec8(c2);
            acc3 += s[j + 3] * loadVec8(c3);
        }
        for (; j < n; ++j)
            acc0 += s[j] * loadVec8(&ut[j * n + i0]);
        const Vec8 sum = (acc0 + acc1) + (acc2 + acc3);
        storeVec8(&rises[i0], loadVec8(&rises[i0]) + sum);
    }
    for (; i0 < n; ++i0) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += s[j] * ut[j * n + i0];
        rises[i0] += acc;
    }
}

#pragma GCC diagnostic pop

#else // !(__GNUC__ || __clang__): portable column-AXPY fallbacks

void
accumulateColumnAxpy(const double *ut, const double *s, double *rises,
                     std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        const double sj = s[j];
        const double *col = &ut[j * n];
        for (std::size_t i = 0; i < n; ++i)
            rises[i] += sj * col[i];
    }
}

#endif

} // namespace ecolo::thermal::kernels
