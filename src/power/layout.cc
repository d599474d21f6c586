#include "power/layout.hh"

#include "util/logging.hh"

namespace ecolo::power {

DataCenterLayout::DataCenterLayout(Params params) : params_(params)
{
    ECOLO_ASSERT(params_.numRacks > 0 && params_.serversPerRack > 0,
                 "layout needs at least one rack and one server");
    ECOLO_ASSERT(params_.containerLength > 0.0 &&
                 params_.containerWidth > 0.0 &&
                 params_.containerHeight > 0.0,
                 "container dimensions must be positive");
}

RackSlot
DataCenterLayout::rackSlotOf(std::size_t server_index) const
{
    ECOLO_ASSERT(server_index < numServers(),
                 "server index out of range: ", server_index);
    return RackSlot{server_index / params_.serversPerRack,
                    server_index % params_.serversPerRack};
}

std::size_t
DataCenterLayout::indexOf(RackSlot rs) const
{
    ECOLO_ASSERT(rs.rack < params_.numRacks &&
                 rs.slot < params_.serversPerRack,
                 "rack/slot out of range: ", rs.rack, "/", rs.slot);
    return rs.rack * params_.serversPerRack + rs.slot;
}

Position
DataCenterLayout::inletPositionOf(std::size_t server_index) const
{
    const RackSlot rs = rackSlotOf(server_index);
    // Racks stand in a row along the container's length, past the CRAC.
    const double rack_x0 = params_.crakX + 1.0;
    Position pos;
    pos.x = rack_x0 + static_cast<double>(rs.rack) * params_.rackSpacing;
    pos.y = params_.containerWidth * 0.3; // cold-aisle face
    const double slot_pitch =
        params_.rackHeight / static_cast<double>(params_.serversPerRack);
    pos.z = (static_cast<double>(rs.slot) + 0.5) * slot_pitch;
    return pos;
}

double
DataCenterLayout::airVolume() const
{
    // Racks and containment occupy roughly a quarter of the enclosure.
    return params_.containerLength * params_.containerWidth *
           params_.containerHeight * 0.75;
}

} // namespace ecolo::power
