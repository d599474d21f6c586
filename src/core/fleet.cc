#include "core/fleet.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/setup_cache.hh"
#include "telemetry/telemetry.hh"
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
    downNow_.assign(num_sites, false);
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
    // scratch row; the serial aggregation below then walks minutes in
    // order. The rows persist across calls (assign() only reallocates
    // when a call spans more minutes than any before it), and the pool
    // body's two captured words fit std::function's inline buffer.
    downScratch_.resize(num_sites);
    for (auto &row : downScratch_)
        row.assign(span, 0);
    util::parallelFor(0, num_sites, [this, span](std::size_t s) {
        Simulation &site = *sites_[s];
        for (std::size_t m = 0; m < span; ++m) {
            site.run(1);
            downScratch_[s][m] =
                site.coloOperator().state() == OperatorState::Outage;
        }
    });

    for (std::size_t m = 0; m < span; ++m) {
        ++now_;
        std::size_t down = 0;
        for (std::size_t s = 0; s < num_sites; ++s) {
            downNow_[s] = downScratch_[s][m] != 0;
            if (downNow_[s]) {
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

std::size_t
FleetSimulation::sitesDownNow() const
{
    std::size_t down = 0;
    for (bool b : downNow_)
        down += b;
    return down;
}

util::Result<void>
FleetSimulation::saveCheckpoint(const std::string &path,
                                std::uint32_t schema_version) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            return ECOLO_ERROR(util::ErrorCode::IoError,
                               "cannot open checkpoint file for writing: ",
                               tmp);
        }
        util::StateWriter writer(os);
        writer.header();
        writer.tag("FLT ");
        // Config fingerprint: enough to reject a checkpoint written by a
        // different campaign -- or a behaviorally different build -- before
        // any state is interpreted.
        writer.u32(schema_version);
        writer.u64(sites_.size());
        writer.u64(sites_.front()->config().seed);
        writer.u64(sites_.front()->config().numServers());
        writer.i64(strikeMinute_);
        writer.i64(now_);

        writer.u64(result_.sitesWithOutage);
        writer.u64(result_.maxSimultaneousOutages);
        writer.i64(result_.wideAreaInterruptionMinutes);
        writer.i64(result_.firstOutageDelay);
        writer.i64Vector(result_.siteOutageMinutes);
        for (bool b : downNow_)
            writer.boolean(b);

        for (const auto &site : sites_)
            site->saveState(writer);

        os.flush();
        if (!writer.good() || !os) {
            return ECOLO_ERROR(util::ErrorCode::IoError,
                               "short write to checkpoint file: ", tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "cannot rename checkpoint into place: ", tmp,
                           " -> ", path);
    }
    telemetry::emitEvent(now_, telemetry::EventKind::CheckpointSaved,
                         static_cast<double>(now_), path);
    return {};
}

util::Result<void>
FleetSimulation::loadCheckpoint(const std::string &path,
                                std::uint32_t schema_version)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "cannot open checkpoint file: ", path);
    }
    util::StateReader reader(is);
    reader.header();
    reader.tag("FLT ");

    const std::uint32_t version = reader.u32();
    if (reader.ok() && version != schema_version) {
        return ECOLO_ERROR(util::ErrorCode::StateError,
                           "engine schema version mismatch for ", path,
                           ": checkpoint v", version, " vs build v",
                           schema_version,
                           " (refusing to resume across builds)");
    }
    const std::uint64_t num_sites = reader.u64();
    const std::uint64_t seed = reader.u64();
    const std::uint64_t num_servers = reader.u64();
    const MinuteIndex strike = reader.i64();
    if (!reader.ok())
        return reader.status().error();
    if (num_sites != sites_.size() ||
        seed != sites_.front()->config().seed ||
        num_servers != sites_.front()->config().numServers() ||
        strike != strikeMinute_) {
        return ECOLO_ERROR(
            util::ErrorCode::StateError,
            "checkpoint fingerprint mismatch for ", path, ": checkpoint (",
            num_sites, " sites, seed ", seed, ", ", num_servers,
            " servers, strike ", strike, ") vs campaign (", sites_.size(),
            " sites, seed ", sites_.front()->config().seed, ", ",
            sites_.front()->config().numServers(), " servers, strike ",
            strikeMinute_, ")");
    }

    now_ = reader.i64();
    result_.sitesWithOutage = static_cast<std::size_t>(reader.u64());
    result_.maxSimultaneousOutages =
        static_cast<std::size_t>(reader.u64());
    result_.wideAreaInterruptionMinutes = reader.i64();
    result_.firstOutageDelay = reader.i64();
    result_.siteOutageMinutes = reader.i64Vector();
    if (reader.ok() && result_.siteOutageMinutes.size() != sites_.size()) {
        return ECOLO_ERROR(util::ErrorCode::StateError,
                           "checkpoint per-site vector length mismatch: ",
                           result_.siteOutageMinutes.size(), " vs ",
                           sites_.size());
    }
    for (std::size_t s = 0; s < downNow_.size(); ++s)
        downNow_[s] = reader.boolean();

    for (auto &site : sites_)
        site->loadState(reader);

    if (reader.ok()) {
        telemetry::emitEvent(now_, telemetry::EventKind::CheckpointRestored,
                             static_cast<double>(now_), path);
    }
    return reader.status();
}

} // namespace ecolo::core
