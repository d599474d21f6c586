/**
 * @file
 * SetupCache: shared constructor-time artifacts for campaign members.
 *
 * Profiling shows a Simulation costs ~1 s to construct -- year-long
 * trace generation, the 60-iteration mean-power bisection over three
 * 525600-sample traces, the analytic heat matrix, and its temporal
 * (Prony) factorization -- while the steady slot loop costs ~2 us/slot.
 * Sweep campaigns construct dozens of members that differ only in
 * policy or one parameter, so almost all of that setup is identical
 * across members. This cache shares the four expensive artifacts,
 * keyed by an FNV-1a hash of exactly the config fields each depends
 * on; every cached value is a deterministic function of its key
 * fields, so cache hits are bit-identical to recomputation.
 *
 * Thread safety: lookups take a mutex; values are immutable once
 * published (shared_ptr<const>). On a miss the compute callback runs
 * *outside* the lock -- concurrent misses on one key may compute
 * twice, but both results are identical and the loser is discarded,
 * so constructor parallelism (util::parallelFor over campaign
 * members) is never serialized behind a 1-second trace generation.
 * The trace-set store is LRU-bounded (entries are ~13 MB); the
 * matrix/factorization/scale stores are tiny and unbounded.
 * Every Simulation builds through a cache (a private one when the
 * config carries none); its tenants read the cached trace set in place.
 */

#ifndef ECOLO_CORE_SETUP_CACHE_HH
#define ECOLO_CORE_SETUP_CACHE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "thermal/factorization.hh"
#include "thermal/heat_matrix.hh"
#include "trace/utilization_trace.hh"

namespace ecolo::core {

class SetupCache
{
  public:
    /** The generated (unscaled) benign traces, one per tenant. Tenants
     * alias into it, which keeps an evicted set alive for its members. */
    using TraceSet = std::vector<trace::UtilizationTrace>;

    /** Per-artifact hit/miss counters (testing / telemetry). */
    struct Counters
    {
        std::uint64_t traceHits = 0, traceMisses = 0;
        std::uint64_t scaleHits = 0, scaleMisses = 0;
        std::uint64_t matrixHits = 0, matrixMisses = 0;
        std::uint64_t factorizationHits = 0, factorizationMisses = 0;
    };

    /** Most trace sets kept alive at once (each is ~13 MB; campaigns
     * sharing one workload only ever touch one key). */
    static constexpr std::size_t kMaxTraceSets = 4;

    std::shared_ptr<const TraceSet>
    traceSet(std::uint64_t key, const std::function<TraceSet()> &make);

    double scaleFactor(std::uint64_t key,
                       const std::function<double()> &make);

    std::shared_ptr<const thermal::HeatDistributionMatrix>
    matrix(std::uint64_t key,
           const std::function<thermal::HeatDistributionMatrix()> &make);

    std::shared_ptr<const thermal::TemporalFactorization>
    factorization(
        std::uint64_t key,
        const std::function<thermal::TemporalFactorization()> &make);

    Counters counters() const;

    // ---- Key derivation -------------------------------------------------
    // Each key hashes exactly the config fields the artifact is a
    // function of (doubles by bit pattern), so two configs collide on a
    // key only when the artifact is provably identical. A caller that
    // brings its own traces prefills traceSet under traceSetKey before
    // the simulation is built, and the engine takes them from there.

    /** Generated benign traces: seed, trace kind, tenant count, and the
     * active generator's shape parameters. */
    static std::uint64_t traceSetKey(const SimulationConfig &config);

    /** Mean-power bisection: the trace key plus every input of the
     * power model and the target (server spec, tenant/server counts,
     * capacity, average utilization, attacker standby draw). */
    static std::uint64_t scaleFactorKey(const SimulationConfig &config);

    /** Analytic heat matrix: layout, analytic params, horizon. */
    static std::uint64_t matrixKey(const SimulationConfig &config);

    /** Temporal factorization: the matrix key plus the factorization
     * options (the fit does not depend on the kernel mode). */
    static std::uint64_t factorizationKey(const SimulationConfig &config);

  private:
    mutable std::mutex mutex_;
    Counters counters_;

    std::unordered_map<std::uint64_t, std::shared_ptr<const TraceSet>>
        traceSets_;
    //! LRU order: a hit moves its key to the back; front = evicted next.
    std::deque<std::uint64_t> traceOrder_;
    std::unordered_map<std::uint64_t, double> scaleFactors_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const thermal::HeatDistributionMatrix>>
        matrices_;
    std::unordered_map<
        std::uint64_t,
        std::shared_ptr<const thermal::TemporalFactorization>>
        factorizations_;
};

} // namespace ecolo::core

#endif // ECOLO_CORE_SETUP_CACHE_HH
