#include "power/mean_power_kernel.hh"

// Built with -ffp-contract=off (src/power/CMakeLists.txt): an FMA in
// `idle + dyn * x` or `sum += p * servers` would move the last bits of
// a lane, and the solve's decisions, on ISAs that have one.

namespace ecolo::power {

namespace {

/**
 * The pass at vector width W doubles: kMeanPowerLanes / W independent
 * vector sums, each lane running the scalar loop's operations in the
 * scalar loop's order. The loop is bound by the latency of the add
 * chain, so the lanes come almost for free.
 */
template <std::size_t W>
[[gnu::always_inline]] inline MeanPowerLanes
lanes(std::span<const double> samples, double idle, double dyn,
      double servers, const MeanPowerLanes &factors)
{
    typedef double Vec __attribute__((vector_size(W * sizeof(double))));
    constexpr std::size_t kVecs = kMeanPowerLanes / W;
    static_assert(kVecs * W == kMeanPowerLanes);

    const Vec zero = {};
    const Vec one = zero + 1.0;
    Vec f[kVecs], sum[kVecs];
    for (std::size_t k = 0; k < kVecs; ++k) {
        __builtin_memcpy(&f[k], &factors[k * W], sizeof(Vec));
        sum[k] = zero;
    }
    for (const double u : samples) {
        for (std::size_t k = 0; k < kVecs; ++k) {
            // std::clamp(u * f, 0, 1) term for term (a NaN passes
            // through both selects, as it does through std::clamp).
            Vec x = u * f[k];
            x = x < zero ? zero : x;
            x = one < x ? one : x;
            sum[k] += (idle + dyn * x) * servers;
        }
    }
    const double count = static_cast<double>(samples.size());
    MeanPowerLanes means;
    for (std::size_t k = 0; k < kVecs; ++k) {
        const Vec mean = sum[k] / count;
        __builtin_memcpy(&means[k * W], &mean, sizeof(Vec));
    }
    return means;
}

// One body per ISA at that ISA's native width, picked once at load time
// by the IFUNC GCC emits for the target-versioned overloads (the ISA
// set of the thermal kernel's bodies). target_clones cannot vary the
// vector width per clone, and an 8-wide vector on the narrower clones
// keeps its sums on the stack. When the build flags
// already cover a version's ISA (-march=native), GCC calls the best
// such version directly and drops the rest, hence [[gnu::unused]].
// Sanitizer builds take the baseline body: gcc instruments an IFUNC
// resolver like any other function, and under TSan/ASan it calls into
// the sanitizer runtime during IRELATIVE relocation, before the
// runtime's TLS exists, so the process segfaults at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
        && !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)

[[gnu::unused]] __attribute__((target("avx512f"))) MeanPowerLanes
pass(std::span<const double> samples, double idle, double dyn,
     double servers, const MeanPowerLanes &factors)
{
    return lanes<8>(samples, idle, dyn, servers, factors);
}

[[gnu::unused]] __attribute__((target("avx2"))) MeanPowerLanes
pass(std::span<const double> samples, double idle, double dyn,
     double servers, const MeanPowerLanes &factors)
{
    return lanes<4>(samples, idle, dyn, servers, factors);
}

[[gnu::unused]] __attribute__((target("default"))) MeanPowerLanes
pass(std::span<const double> samples, double idle, double dyn,
     double servers, const MeanPowerLanes &factors)
{
    return lanes<2>(samples, idle, dyn, servers, factors);
}

#else

MeanPowerLanes
pass(std::span<const double> samples, double idle, double dyn,
     double servers, const MeanPowerLanes &factors)
{
    return lanes<2>(samples, idle, dyn, servers, factors);
}

#endif

} // namespace

MeanPowerLanes
tenantMeanPower(std::span<const double> samples, double idle_kw,
                double dynamic_kw, double servers,
                const MeanPowerLanes &factors)
{
    return pass(samples, idle_kw, dynamic_kw, servers, factors);
}

} // namespace ecolo::power
