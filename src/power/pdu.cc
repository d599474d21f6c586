#include "power/pdu.hh"

#include "util/logging.hh"

namespace ecolo::power {

std::size_t
Pdu::addCircuit(Kilowatts subscription)
{
    ECOLO_ASSERT(subscription.value() > 0.0,
                 "non-positive subscription for circuit ", circuits_.size());
    circuits_.push_back(Circuit{subscription, Kilowatts(0.0)});
    return circuits_.size() - 1;
}

void
Pdu::setCircuitDraw(std::size_t i, Kilowatts grid_power)
{
    ECOLO_ASSERT(grid_power.value() >= -1e-9,
                 "negative grid draw on circuit ", i);
    circuits_.at(i).currentDraw = energized_ ? grid_power : Kilowatts(0.0);
}

Kilowatts
Pdu::circuitMeteredPower(std::size_t i) const
{
    return meter_.read(circuits_.at(i).currentDraw);
}

Kilowatts
Pdu::totalMeteredPower() const
{
    Kilowatts total(0.0);
    for (std::size_t i = 0; i < circuits_.size(); ++i)
        total += circuitMeteredPower(i);
    return total;
}

bool
Pdu::circuitOverSubscription(std::size_t i, double tolerance) const
{
    const Circuit &c = circuits_.at(i);
    return c.currentDraw.value() > c.subscription.value() + tolerance;
}

bool
Pdu::overCapacity(double tolerance) const
{
    return totalMeteredPower().value() > capacity_.value() + tolerance;
}

} // namespace ecolo::power
