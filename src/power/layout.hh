/**
 * @file
 * Physical layout of the containerized edge colocation.
 *
 * Matches the paper's Vertiv SmartMod-style container: two racks of twenty
 * servers each inside a hot/cold-aisle contained enclosure with a CRAC unit
 * at one end. The layout provides server coordinates for the CFD-lite solver
 * and the rack/slot indexing the rest of the system uses.
 */

#ifndef ECOLO_POWER_LAYOUT_HH
#define ECOLO_POWER_LAYOUT_HH

#include <cstddef>
#include <vector>

#include "util/units.hh"

namespace ecolo::power {

/** Position of a server within the container, in meters. */
struct Position
{
    double x = 0.0; //!< along the container's length
    double y = 0.0; //!< across the container's width
    double z = 0.0; //!< height
};

/** Rack/slot address of a server. */
struct RackSlot
{
    std::size_t rack = 0;
    std::size_t slot = 0;
};

/** Container geometry plus rack/server placement. */
class DataCenterLayout
{
  public:
    struct Params
    {
        std::size_t numRacks = 2;
        std::size_t serversPerRack = 20;
        double containerLength = 6.1;  //!< m (20 ft container)
        double containerWidth = 2.4;   //!< m
        double containerHeight = 2.6;  //!< m
        double rackHeight = 2.0;       //!< m of usable rack space
        double rackSpacing = 1.2;      //!< m between rack columns
        double crakX = 0.5;            //!< m, CRAC position along length
    };

    DataCenterLayout() : DataCenterLayout(Params{}) {}
    explicit DataCenterLayout(Params params);

    std::size_t numRacks() const { return params_.numRacks; }
    std::size_t serversPerRack() const { return params_.serversPerRack; }
    std::size_t numServers() const
    { return params_.numRacks * params_.serversPerRack; }

    /** Rack/slot of the server with the given global index. */
    RackSlot rackSlotOf(std::size_t server_index) const;

    /** Global index of the server at the given rack/slot. */
    std::size_t indexOf(RackSlot rs) const;

    /** Physical position of a server's air inlet. */
    Position inletPositionOf(std::size_t server_index) const;

    const Params &params() const { return params_; }

    /** Container air volume in cubic meters (for the lumped room model). */
    double airVolume() const;

  private:
    Params params_;
};

} // namespace ecolo::power

#endif // ECOLO_POWER_LAYOUT_HH
