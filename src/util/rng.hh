/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of EdgeTherm (trace generation, side-channel
 * noise, exploration in Q-learning, ...) draw from an explicitly seeded Rng
 * so that year-long simulations are reproducible bit-for-bit. The generator
 * is xoshiro256** seeded through SplitMix64, which is fast, high quality, and
 * has a tiny state that is cheap to fork per subsystem.
 */

#ifndef ECOLO_UTIL_RNG_HH
#define ECOLO_UTIL_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/state_io.hh"

namespace ecolo {

/** xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 so nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Raw 64 random bits. */
    std::uint64_t next();

    // UniformRandomBitGenerator interface so <random> adaptors also work.
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (cached second variate). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Fill `out` with exactly what out.size() calls of normal() would
     * return, and leave the generator as those calls would (the cached
     * variate included). The uniforms are drawn serially; the
     * Box-Muller transforms run on util::parallelFor, kNormalPairsPerTask
     * pairs per task, so the values do not depend on the pool's size.
     */
    void normals(std::span<double> out);

    /** Variate pairs one normals() pool task transforms. */
    static constexpr std::size_t kNormalPairsPerTask = 4096;

    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Poisson-distributed count with the given mean (Knuth / PTRS hybrid). */
    std::uint64_t poisson(double mean);

    /** Fork an independent child stream (for per-subsystem determinism). */
    Rng fork();

    /** Serialize the full generator state (checkpointing). */
    void saveState(util::StateWriter &writer) const;
    /** Restore a state written by saveState; resumes bit-identically. */
    void loadState(util::StateReader &reader);

  private:
    std::array<std::uint64_t, 4> state_{};
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace ecolo

#endif // ECOLO_UTIL_RNG_HH
