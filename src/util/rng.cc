#include "util/rng.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo {

namespace {

/** SplitMix64: used only for seeding the main state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** A uniform in (0, 1): uniform() redrawn while it is 0. */
double
positiveUniform(Rng &rng)
{
    double u = 0.0;
    do {
        u = rng.uniform();
    } while (u <= 0.0);
    return u;
}

/**
 * Box-Muller: the standard normals normal() returns (`first`) and
 * caches (`second`) for the uniforms u1 in (0, 1) and u2 in [0, 1).
 */
void
boxMuller(double u1, double u2, double &first, double &second)
{
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    first = radius * std::cos(theta);
    second = radius * std::sin(theta);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    ECOLO_ASSERT(lo <= hi, "bad uniform range [", lo, ", ", hi, ")");
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    ECOLO_ASSERT(n > 0, "uniformInt needs a positive range");
    // Rejection sampling to kill modulo bias.
    const std::uint64_t threshold = (~n + 1) % n; // == 2^64 mod n
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    const double u1 = positiveUniform(*this);
    const double u2 = uniform();
    double first = 0.0;
    boxMuller(u1, u2, first, cachedNormal_);
    hasCachedNormal_ = true;
    return first;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

void
Rng::normals(std::span<double> out)
{
    std::size_t head = 0;
    if (hasCachedNormal_ && !out.empty()) {
        out[head++] = cachedNormal_;
        hasCachedNormal_ = false;
    }
    // Draw each pair's uniforms into the two slots its normals take, in
    // normal()'s order. An odd last slot is one plain normal() call,
    // which leaves the second variate cached.
    double *const pairs = out.data() + head;
    const std::size_t num_pairs = (out.size() - head) / 2;
    for (std::size_t p = 0; p < num_pairs; ++p) {
        pairs[2 * p] = positiveUniform(*this);
        pairs[2 * p + 1] = uniform();
    }
    if (head + 2 * num_pairs < out.size())
        out.back() = normal();

    const std::size_t num_tasks =
        (num_pairs + kNormalPairsPerTask - 1) / kNormalPairsPerTask;
    util::parallelFor(0, num_tasks, [pairs, num_pairs](std::size_t task) {
        const std::size_t end =
            std::min(num_pairs, (task + 1) * kNormalPairsPerTask);
        for (std::size_t p = task * kNormalPairsPerTask; p < end; ++p)
            boxMuller(pairs[2 * p], pairs[2 * p + 1], pairs[2 * p],
                      pairs[2 * p + 1]);
    });
}

double
Rng::exponential(double rate)
{
    ECOLO_ASSERT(rate > 0.0, "exponential rate must be positive");
    return -std::log(positiveUniform(*this)) / rate;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::uint64_t
Rng::poisson(double mean)
{
    ECOLO_ASSERT(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's method for small means.
        const double limit = std::exp(-mean);
        std::uint64_t count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Normal approximation with continuity correction for large means.
    const double sample = normal(mean, std::sqrt(mean));
    return sample <= 0.0 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
}

Rng
Rng::fork()
{
    return Rng(next());
}

void
Rng::saveState(util::StateWriter &writer) const
{
    writer.tag("RNG ");
    for (std::uint64_t word : state_)
        writer.u64(word);
    writer.f64(cachedNormal_);
    writer.boolean(hasCachedNormal_);
}

void
Rng::loadState(util::StateReader &reader)
{
    reader.tag("RNG ");
    for (auto &word : state_)
        word = reader.u64();
    cachedNormal_ = reader.f64();
    hasCachedNormal_ = reader.boolean();
}

} // namespace ecolo
