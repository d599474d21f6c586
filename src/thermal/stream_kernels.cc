#include "thermal/stream_kernels.hh"

namespace ecolo::thermal::kernels {

#if defined(__GNUC__) || defined(__clang__)

/** Double vectors of 2, 4 and 8 lanes: one native register each under
 * the baseline ISA, AVX2 and AVX-512. */
typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

// The helpers always inline into the ISA bodies below, so the by-value
// vector ABI the -Wpsabi warning is about never crosses a real call.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace {

template <typename V>
__attribute__((always_inline)) inline V
loadVec(const double *p)
{
    V v;
    __builtin_memcpy(&v, p, sizeof(v)); // unaligned vector load
    return v;
}

template <typename V>
__attribute__((always_inline)) inline void
storeVec(double *p, V v)
{
    __builtin_memcpy(p, &v, sizeof(v));
}

/** Rows per output block: every ISA body gives each block's rows the
 * same four per-lane chains, whatever vector width carries them. */
constexpr std::size_t kBlock = 8;

/**
 * The column-AXPY in register blocks of 8 rows, each row held in
 * V-wide parts: the accumulators stay in registers for the whole column
 * sweep, so rises[] is touched once per block, and the independent
 * chains hide FMA latency. Lane i accumulates four chains, column j
 * feeding chain j % 4 in column order (the n % 4 trailing columns feed
 * chain 0), then adds (c0 + c1) + (c2 + c3) to rises[i]. That per-lane
 * math is the same for every V, so the bits depend only on whether the
 * body's ISA contracts into FMA. The explicit vector types pin the
 * lowering: GCC's auto-vectorizer scalarizes the equivalent array form,
 * and a vector wider than the ISA's registers goes through the stack.
 * Rows past the last full block take one serial chain each.
 */
template <typename V>
__attribute__((always_inline)) inline void
columnAxpy(const double *ut, const double *s, double *rises, std::size_t n)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
    constexpr std::size_t kParts = kBlock / kLanes;
    std::size_t i0 = 0;
    for (; i0 + kBlock <= n; i0 += kBlock) {
        V acc[4][kParts] = {};
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            for (std::size_t c = 0; c < 4; ++c) {
                const double *col = &ut[(j + c) * n + i0];
                for (std::size_t p = 0; p < kParts; ++p)
                    acc[c][p] += s[j + c] * loadVec<V>(col + kLanes * p);
            }
        }
        for (; j < n; ++j) {
            const double *col = &ut[j * n + i0];
            for (std::size_t p = 0; p < kParts; ++p)
                acc[0][p] += s[j] * loadVec<V>(col + kLanes * p);
        }
        for (std::size_t p = 0; p < kParts; ++p) {
            double *r = &rises[i0 + kLanes * p];
            const V out = loadVec<V>(r) + ((acc[0][p] + acc[1][p]) +
                                           (acc[2][p] + acc[3][p]));
            storeVec<V>(r, out);
        }
    }
    for (; i0 < n; ++i0) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += s[j] * ut[j * n + i0];
        rises[i0] += acc;
    }
}

using AxpyFn = void (*)(const double *, const double *, double *,
                        std::size_t);

void
axpyBaseline(const double *ut, const double *s, double *rises,
             std::size_t n)
{
    columnAxpy<Vec2>(ut, s, rises, n);
}

#if defined(__x86_64__) && !defined(__clang__)

__attribute__((target("avx512f"))) void
axpyAvx512(const double *ut, const double *s, double *rises, std::size_t n)
{
    columnAxpy<Vec8>(ut, s, rises, n);
}

__attribute__((target("avx2,fma"))) void
axpyAvx2(const double *ut, const double *s, double *rises, std::size_t n)
{
    columnAxpy<Vec4>(ut, s, rises, n);
}

#endif

/** The widest body the machine runs, picked once on first use. A plain
 * pointer rather than an IFUNC, whose resolver crashes sanitizer
 * builds at load: those take the same body and the same bits. */
AxpyFn
axpyForMachine()
{
    static const AxpyFn fn = [] {
#if defined(__x86_64__) && !defined(__clang__)
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f"))
            return &axpyAvx512;
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
            return &axpyAvx2;
#endif
        return &axpyBaseline;
    }();
    return fn;
}

} // namespace

void
accumulateColumnAxpy(const double *ut, const double *s, double *rises,
                     std::size_t n)
{
    axpyForMachine()(ut, s, rises, n);
}

bool
columnAxpyFuses()
{
    return axpyForMachine() != &axpyBaseline;
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

bool
columnAxpyFuses()
{
    return false;
}

#endif

} // namespace ecolo::thermal::kernels
