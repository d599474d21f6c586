/**
 * @file
 * ThermalEnvironment: the facade the simulation engine talks to.
 *
 * Combines the heat-distribution matrix (spatial inlet structure) with the
 * lumped cooling/room model (aggregate overload dynamics): every minute the
 * engine hands over each server's *actual* heat output, and the environment
 * reports each server's inlet temperature
 *
 *     T_inlet_i = T_setpoint + overload_rise + matrix_rise_i .
 */

#ifndef ECOLO_THERMAL_ENVIRONMENT_HH
#define ECOLO_THERMAL_ENVIRONMENT_HH

#include <vector>

#include "thermal/cooling.hh"
#include "thermal/heat_matrix.hh"
#include "util/units.hh"

namespace ecolo::thermal {

/** Facade over the matrix model and the lumped cooling model. */
class ThermalEnvironment
{
  public:
    /**
     * @param matrix spatial inlet-coupling model
     * @param cooling lumped cooling/room parameters
     * @param server_airflow_w_per_k per-server fan airflow expressed as
     *        watts of heat per kelvin of inlet->outlet temperature rise
     *        (m_dot * c_p). The default (15 W/K) gives the paper's
     *        "outlet typically 10+ C above inlet" at ~150 W per server.
     * @param mode rise-computation kernel (Auto streams when the fit is
     *        admitted and falls back to dense; see KernelMode)
     * @param factorization truncation + streaming-fit tolerances
     * @param precomputed_factorization optional shared fit of the same
     *        matrix/options (see MatrixThermalModel); skips the
     *        per-instance Prony fit with bit-identical behavior
     */
    ThermalEnvironment(HeatDistributionMatrix matrix, CoolingParams cooling,
                       double server_airflow_w_per_k = 15.0,
                       KernelMode mode = KernelMode::Auto,
                       FactorizationOptions factorization =
                           FactorizationOptions(),
                       std::shared_ptr<const TemporalFactorization>
                           precomputed_factorization = {});

    std::size_t numServers() const { return matrixModel_.numServers(); }

    /** Advance one minute given every server's actual heat output. */
    void stepMinute(const std::vector<Kilowatts> &server_heat);
    /**
     * The same step with the heats' total supplied by a caller that
     * already has it (the slot loop). `total_heat` must be their sum in
     * server order starting from +0.0, so both forms give the same bits.
     */
    void stepMinute(const std::vector<Kilowatts> &server_heat,
                    Kilowatts total_heat);

    /** Inlet temperature of server i after the last step. */
    Celsius inletTemperature(std::size_t i) const;

    /**
     * Outlet (exhaust) temperature of server i: inlet plus the rise its
     * own heat imposes on its fan airflow (the paper's Eqn. (1):
     * T_inlet < T_outlet). What an outlet-air sensor would read.
     */
    Celsius outletTemperature(std::size_t i) const;

    /** Hottest inlet across all servers (the operator's trip metric). */
    Celsius maxInletTemperature() const;

    /** Mean inlet temperature across servers. */
    Celsius meanInletTemperature() const;

    /** Supply temperature including room overload rise. */
    Celsius supplyTemperature() const
    { return cooling_.supplyTemperature(); }

    CoolingSystem &cooling() { return cooling_; }
    const CoolingSystem &cooling() const { return cooling_; }

    const HeatDistributionMatrix &matrix() const
    { return matrixModel_.matrix(); }

    /** The rise model (to inspect which kernel Auto mode selected). */
    const MatrixThermalModel &matrixModel() const { return matrixModel_; }

    /** Drop all thermal history (outage restart). */
    void reset();

    /** Serialize / restore the mutable state (checkpointing). */
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);

  private:
    bool streaming() const
    { return matrixModel_.activeKernel() == KernelMode::Streaming; }
    /** Per-server rises after the last step: the streaming kernel's own
     * cache, or the dense kernel's output. */
    const std::vector<double> &rises() const;
    /** Set maxRise_ and riseSum_ from rises() (both zero when empty). */
    void summarizeRises();

    MatrixThermalModel matrixModel_;
    CoolingSystem cooling_;
    double serverAirflowWPerK_;
    std::vector<double> denseRises_; //!< dense kernel's rises, per step
    double maxRise_ = 0.0;           //!< largest of rises()
    double riseSum_ = 0.0;           //!< sum of rises(), in index order
};

} // namespace ecolo::thermal

#endif // ECOLO_THERMAL_ENVIRONMENT_HH
