/**
 * @file
 * LaneBatchRunner: advance many independent simulations on the pool.
 *
 * Campaign drivers (sensitivity sweeps, benchmark panels, the serving
 * replay) hold dozens of Simulations, each with its own horizon. The
 * runner keeps every member's remaining horizon and advances the batch
 * chunk by chunk: run() is one util::parallelFor over the members, each
 * calling its own Simulation::run, so a member's result is its solo
 * run's by construction. Members share no mutable state; what they may
 * share through config.setupCache (traces, heat matrix, factorization)
 * is immutable once built.
 *
 * Once the pool exists, run() allocates nothing (see
 * tests/core/test_zero_alloc.cc).
 */

#ifndef ECOLO_CORE_LANE_BATCH_HH
#define ECOLO_CORE_LANE_BATCH_HH

#include <cstddef>
#include <vector>

#include "core/engine.hh"

namespace ecolo::core {

class LaneBatchRunner
{
  public:
    /**
     * Register a simulation to advance for `horizon_minutes` more
     * minutes (from its current now()). The runner borrows the
     * simulation for the duration of its run() calls only. Returns the
     * member id (add order).
     */
    std::size_t add(Simulation &sim, MinuteIndex horizon_minutes);

    /**
     * Advance every unfinished member by min(minutes, its remaining
     * horizon), members in parallel on the global pool. A member whose
     * cancel check stops it short is retired for good (its remaining()
     * drops to zero).
     */
    void run(MinuteIndex minutes);

    /** run() until every member has exhausted its horizon. */
    void runAll();

    bool finished() const;
    MinuteIndex remaining(std::size_t member) const;

  private:
    struct Member
    {
        Simulation *sim = nullptr;
        MinuteIndex remaining = 0;
    };

    std::vector<Member> members_;
};

} // namespace ecolo::core

#endif // ECOLO_CORE_LANE_BATCH_HH
