#include "core/fleet.hh"

#include <algorithm>
#include <memory>

#include "core/setup_cache.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo::core {

FleetSimulation::FleetSimulation(SimulationConfig base_config,
                                 std::size_t num_sites,
                                 MinuteIndex strike_minute,
                                 Kilowatts strike_threshold)
    : strikeMinute_(strike_minute)
{
    ECOLO_ASSERT(num_sites > 0, "fleet needs at least one site");
    ECOLO_ASSERT(strike_minute >= 0, "negative strike minute");

    // Sites share one setup cache: trace synthesis stays per-site (the
    // cache keys traces on the seed, which differs below), but the heat
    // tensor, its Prony fit and the temporal factorization are
    // seed-independent and get built exactly once for the whole fleet.
    if (!base_config.setupCache)
        base_config.setupCache = std::make_shared<SetupCache>();

    sites_.reserve(num_sites);
    for (std::size_t s = 0; s < num_sites; ++s) {
        SimulationConfig site_config = base_config;
        // Each site has its own tenants, traces and side channel.
        site_config.seed = base_config.seed + 0x9e3779b9ULL * (s + 1);
        sites_.push_back(std::make_unique<Simulation>(
            site_config,
            makeOneShotPolicy(site_config, strike_threshold,
                              strike_minute)));
    }
    result_.numSites = num_sites;
    result_.siteOutageMinutes.assign(num_sites, 0);
}

void
FleetSimulation::run(MinuteIndex minutes)
{
    if (minutes <= 0)
        return;
    const std::size_t num_sites = sites_.size();
    const auto span = static_cast<std::size_t>(minutes);

    // Sites share no mutable state (each has its own traces, thermal
    // history and pre-forked RNG streams), so they advance in parallel,
    // each recording its per-minute outage flag into its own pre-sized
    // scratch row from its minute callback (which runs after the
    // operator's reaction, the last state change of a slot); the serial
    // aggregation below then walks minutes in order. The rows persist
    // across calls (assign() only reallocates when a call spans more
    // minutes than any before it), and the callbacks' and the pool
    // body's two captured words fit std::function's inline buffer.
    downScratch_.resize(num_sites);
    for (std::size_t s = 0; s < num_sites; ++s) {
        downScratch_[s].assign(span, 0);
        sites_[s]->setMinuteCallback([this, s](const MinuteRecord &r) {
            downScratch_[s][static_cast<std::size_t>(r.time - now_)] =
                sites_[s]->coloOperator().state() == OperatorState::Outage;
        });
    }
    util::parallelFor(0, num_sites, [this, minutes](std::size_t s) {
        sites_[s]->run(minutes);
    });

    for (std::size_t m = 0; m < span; ++m) {
        ++now_;
        std::size_t down = 0;
        for (std::size_t s = 0; s < num_sites; ++s) {
            if (downScratch_[s][m] != 0) {
                ++down;
                ++result_.siteOutageMinutes[s];
                if (result_.firstOutageDelay < 0)
                    result_.firstOutageDelay = now_ - strikeMinute_;
            }
        }
        result_.maxSimultaneousOutages =
            std::max(result_.maxSimultaneousOutages, down);
        if (2 * down >= num_sites)
            ++result_.wideAreaInterruptionMinutes;
    }

    result_.sitesWithOutage = 0;
    for (std::size_t s = 0; s < num_sites; ++s)
        result_.sitesWithOutage += sites_[s]->metrics().outages() > 0;
}

} // namespace ecolo::core
