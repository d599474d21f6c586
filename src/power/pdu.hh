/**
 * @file
 * The operator-side power distribution and metering chain.
 *
 * A Pdu distributes UPS-protected power to tenants; the operator hangs one
 * PowerMeter per tenant off the PDU to enforce subscriptions and uses the
 * aggregate reading as a *proxy for cooling load* -- the practice whose
 * blind spot (battery-supplied power is invisible to the meter) enables the
 * paper's behind-the-meter thermal attack.
 */

#ifndef ECOLO_POWER_PDU_HH
#define ECOLO_POWER_PDU_HH

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/units.hh"

namespace ecolo::power {

/**
 * A revenue-grade power meter with optional zero-mean gaussian reading
 * noise (relative, e.g. 0.005 = 0.5% of reading).
 */
class PowerMeter
{
  public:
    explicit PowerMeter(double relative_noise = 0.0)
        : relativeNoise_(relative_noise) {}

    /** Measure a true grid draw; noise uses the supplied rng. */
    Kilowatts read(Kilowatts true_power, Rng &rng) const;

    /** Noise-free reading for deterministic contexts. */
    Kilowatts read(Kilowatts true_power) const { return true_power; }

    double relativeNoise() const { return relativeNoise_; }

  private:
    double relativeNoise_;
};

/**
 * A PDU feeding multiple metered tenant circuits. Tracks per-circuit
 * subscriptions and reports capacity violations.
 */
class Pdu
{
  public:
    explicit Pdu(Kilowatts capacity) : capacity_(capacity) {}

    Kilowatts capacity() const { return capacity_; }

    /** Register a tenant circuit with its subscription; returns its index. */
    std::size_t addCircuit(std::string tenant_name, Kilowatts subscription,
                           double meter_noise = 0.0);

    std::size_t numCircuits() const { return circuits_.size(); }

    /** Record the grid draw on circuit i for the current slot. */
    void setCircuitDraw(std::size_t i, Kilowatts grid_power);

    /** Metered power of circuit i for the current slot (noise-free). */
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
        std::string name;
        Kilowatts subscription;
        PowerMeter meter;
        Kilowatts currentDraw;
    };

    Kilowatts capacity_;
    std::vector<Circuit> circuits_;
    bool energized_ = true;
};

} // namespace ecolo::power

#endif // ECOLO_POWER_PDU_HH
