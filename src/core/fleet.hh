/**
 * @file
 * Coordinated attacks across a fleet of edge colocations.
 *
 * The paper (Sections III-C, VI-A) notes that the one-shot attack "can
 * also be coordinated across multiple edge colocations for a wide-area
 * service interruption" — the scenario that matters for edge-assisted
 * driving, where a region's worth of sites going down together is far
 * worse than any single outage. FleetSimulation runs N independent sites
 * (each with its own traces and thermal state) whose attackers arm for a
 * common strike minute, and reports the wide-area availability impact.
 */

#ifndef ECOLO_CORE_FLEET_HH
#define ECOLO_CORE_FLEET_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "core/engine.hh"

namespace ecolo::core {

/** Outcome of a coordinated fleet campaign. */
struct FleetResult
{
    std::size_t numSites = 0;
    /** Sites that suffered at least one outage. */
    std::size_t sitesWithOutage = 0;
    /** Largest number of sites simultaneously de-energized. */
    std::size_t maxSimultaneousOutages = 0;
    /** Minutes during which at least half the fleet was down. */
    MinuteIndex wideAreaInterruptionMinutes = 0;
    /** Minutes from the strike minute to the first outage; -1 if none. */
    MinuteIndex firstOutageDelay = -1;
    /** Per-site outage minutes. */
    std::vector<MinuteIndex> siteOutageMinutes;
};

/** N edge colocations attacked in lock-step. */
class FleetSimulation
{
  public:
    /**
     * @param base_config per-site configuration; each site gets a distinct
     *        seed derived from base_config.seed (independent tenants and
     *        side channels)
     * @param num_sites fleet size
     * @param strike_minute the coordinated arm time; each site's one-shot
     *        attacker fires at the first minute >= strike_minute when its
     *        local load estimate crosses strike_threshold
     * @param strike_threshold per-site load gate (set low for tight
     *        simultaneity, high for maximal per-site damage)
     */
    FleetSimulation(SimulationConfig base_config, std::size_t num_sites,
                    MinuteIndex strike_minute, Kilowatts strike_threshold);

    /**
     * Advance every site by the given number of minutes. Sites run
     * concurrently on the global thread pool, each by its own
     * Simulation::run, and the outcome is bit-identical to a serial
     * minute-by-minute sweep.
     */
    void run(MinuteIndex minutes);

    /** Aggregate results so far. */
    const FleetResult &result() const { return result_; }

    std::size_t numSites() const { return sites_.size(); }
    const Simulation &site(std::size_t i) const { return *sites_.at(i); }
    MinuteIndex strikeMinute() const { return strikeMinute_; }

    /** Minutes simulated so far. */
    MinuteIndex now() const { return now_; }

  private:
    std::vector<std::unique_ptr<Simulation>> sites_;
    MinuteIndex strikeMinute_;
    MinuteIndex now_ = 0;
    FleetResult result_;
    /**
     * Per-site outage-flag scratch reused across run() calls (rows keep
     * their capacity), so a driver calling run() in small chunks
     * allocates nothing per chunk once warm.
     */
    std::vector<std::vector<unsigned char>> downScratch_;
};

} // namespace ecolo::core

#endif // ECOLO_CORE_FLEET_HH
