/**
 * @file
 * The operator-side power distribution and metering chain.
 *
 * A Pdu distributes UPS-protected power to tenant circuits; the operator
 * meters each circuit (PowerMeter) to enforce subscriptions and uses the
 * aggregate reading as a *proxy for cooling load* -- the practice whose
 * blind spot (battery-supplied power is invisible to the meter) enables the
 * paper's behind-the-meter thermal attack.
 */

#ifndef ECOLO_POWER_PDU_HH
#define ECOLO_POWER_PDU_HH

#include <cstddef>
#include <vector>

#include "util/units.hh"

namespace ecolo::power {

/**
 * A revenue-grade power meter. It reads the grid draw exactly: the
 * paper's blind spot is what the meter cannot see (battery-supplied
 * power), not how precisely it reads what it does see.
 */
class PowerMeter
{
  public:
    /** The metered reading of a true grid draw. */
    Kilowatts read(Kilowatts true_power) const { return true_power; }
};

/**
 * A PDU feeding metered tenant circuits, indexed in the order they were
 * added. Tracks per-circuit subscriptions and reports capacity
 * violations.
 */
class Pdu
{
  public:
    explicit Pdu(Kilowatts capacity) : capacity_(capacity) {}

    Kilowatts capacity() const { return capacity_; }

    /** Register a tenant circuit with its subscription; returns its index. */
    std::size_t addCircuit(Kilowatts subscription);

    std::size_t numCircuits() const { return circuits_.size(); }

    /** Record the grid draw on circuit i for the current slot. */
    void setCircuitDraw(std::size_t i, Kilowatts grid_power);

    /** Metered power of circuit i for the current slot. */
    Kilowatts circuitMeteredPower(std::size_t i) const;

    /** Sum of all circuit meters for the current slot. */
    Kilowatts totalMeteredPower() const;

    /** True if circuit i currently exceeds its subscription. */
    bool circuitOverSubscription(std::size_t i,
                                 double tolerance = 1e-9) const;

    /** True if the PDU as a whole exceeds its capacity. */
    bool overCapacity(double tolerance = 1e-9) const;

    /** Power the PDU off/on (automatic shutdown at 45 C -> outage). */
    void setEnergized(bool on) { energized_ = on; }
    bool energized() const { return energized_; }

  private:
    struct Circuit
    {
        Kilowatts subscription;
        Kilowatts currentDraw;
    };

    Kilowatts capacity_;
    PowerMeter meter_; //!< every circuit reads through one exact meter
    std::vector<Circuit> circuits_;
    bool energized_ = true;
};

} // namespace ecolo::power

#endif // ECOLO_POWER_PDU_HH
