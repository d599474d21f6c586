/**
 * @file
 * The heat-distribution-matrix thermal model.
 *
 * Transient CFD over a year is computationally prohibitive, so -- exactly as
 * the paper does (Section V-A, following Tang et al.) -- we extract a
 * finite-horizon impulse-response tensor from short CFD runs and use it for
 * long simulations: injecting a heat spike at server j and recording every
 * server's inlet temperature for 10 minutes yields coefficients h[i][j][tau]
 * (K per kW), after which server i's inlet temperature is the supply
 * temperature plus the convolution of all servers' recent power with h.
 *
 * The per-minute convolution is the hot path of every year-long campaign.
 * MatrixThermalModel therefore runs one of two kernels. The dense
 * O(N^2 H) convolution is the reference oracle. The streaming kernel
 * factorizes the tensor into R separable terms (see
 * thermal/factorization.hh) and fits each temporal factor with
 * exponential modes (see ExponentialFit); each mode is then an
 * accumulator advanced inside pushPowers --
 * a <- lambda a + p(t) - lambda^H p(t-H), with the departing ring slot
 * supplying the exact window tail -- so computeAllRises returns a cached
 * vector with *no history traversal at all*: O(N modes) update plus R
 * N x N GEMVs per slot (KernelMode::Streaming).
 *
 * Auto streams when the factorization and the mode fit are both within
 * tolerance and the rank makes it cheaper than dense; the analytic default
 * is exactly one mode, so it always streams. A tensor that misses falls
 * back to dense, with a warning.
 */

#ifndef ECOLO_THERMAL_HEAT_MATRIX_HH
#define ECOLO_THERMAL_HEAT_MATRIX_HH

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "power/layout.hh"
#include "thermal/cfd/solver.hh"
#include "thermal/factorization.hh"
#include "util/state_io.hh"
#include "util/units.hh"

namespace ecolo::thermal {

/** Parameters for the closed-form default heat-distribution matrix. */
struct AnalyticMatrixParams
{
    double selfGain = 0.06;       //!< K/kW at a server's own inlet
    double neighborGain = 0.04;   //!< same-rack coupling amplitude
    double slotDecay = 3.0;       //!< e-folding distance in slots
    double crossRackGain = 0.012; //!< other-rack coupling amplitude
    double globalGain = 0.035;    //!< K/kW uniform return-air mixing term
    double riseTimeMinutes = 3.0; //!< 1 - exp(-t/T) temporal build-up
    double topSlotBias = 0.5;     //!< extra coupling for top slots
};

/** Impulse-response tensor h[i][j][tau] in K/kW at minute resolution. */
class HeatDistributionMatrix
{
  public:
    HeatDistributionMatrix(std::size_t num_servers,
                           std::size_t horizon_minutes);

    std::size_t numServers() const { return numServers_; }
    std::size_t horizon() const { return horizon_; }

    /** Response of inlet i to 1 kW at server j, tau minutes later.
     * Writing through the returned reference invalidates the cached
     * steady-gain table (rebuilt lazily on the next steadyGain call). */
    double &coeff(std::size_t i, std::size_t j, std::size_t tau);
    double coeff(std::size_t i, std::size_t j, std::size_t tau) const;

    /** Steady-state inlet-i gain to sustained power at j (sum over tau),
     * served from a precomputed N x N table. */
    double steadyGain(std::size_t i, std::size_t j) const;

    /** Total steady gain of inlet i to uniform power at all servers. */
    double totalSteadyGain(std::size_t i) const;

    /** Alias so callers can say HeatDistributionMatrix::AnalyticParams. */
    using AnalyticParams = AnalyticMatrixParams;

    /**
     * Closed-form matrix with the spatial structure CFD extraction
     * produces (self > same-rack-decaying > cross-rack > uniform mixing;
     * upper slots slightly hotter), used as the fast default so year-long
     * sweeps do not need a CFD pass.
     */
    static HeatDistributionMatrix
    analyticDefault(const power::DataCenterLayout &layout,
                    AnalyticParams params = AnalyticParams(),
                    std::size_t horizon_minutes = 10);

    /**
     * Extract the matrix from the CFD-lite solver: bring the container to a
     * quasi-steady state under baseline_powers, then, for each server, add
     * spike on top and record every inlet for horizon minutes against a
     * drift-corrected no-spike reference (the paper's exact procedure).
     * The per-server spike columns are independent and run on the global
     * thread pool; results are bit-identical to a serial extraction.
     */
    static HeatDistributionMatrix
    extractFromCfd(const power::DataCenterLayout &layout,
                   const CfdParams &cfd_params,
                   const std::vector<Kilowatts> &baseline_powers,
                   Kilowatts spike,
                   std::size_t horizon_minutes = 10,
                   Seconds settle_time = minutes(15));

  private:
    /** Rebuild the steady-gain table if coeff writes invalidated it. */
    void ensureGainCache() const;

    std::size_t numServers_;
    std::size_t horizon_;
    std::vector<double> coeffs_; //!< [i][j][tau] flattened

    // Lazily rebuilt on first read after a coeff write; the factories
    // build it eagerly so const instances never rebuild (thread-safe to
    // read concurrently once built).
    mutable std::vector<double> steadyGains_; //!< [i][j] sums over tau
    mutable std::vector<double> totalGains_;  //!< per-i row sums
    mutable bool gainsDirty_ = true;
};

/** How MatrixThermalModel computes rises. Callers request Auto or Dense;
 * Streaming is only ever reported, by activeKernel(). The numeric values
 * of Auto and Dense feed cache keys, so never reorder them. */
enum class KernelMode
{
    Auto = 0,  //!< streaming when the fit is admitted, else dense
    Dense = 1, //!< always the reference O(N^2 H) convolution
    Streaming, //!< the recurrent O(N modes) kernel Auto resolved to
};

/** Stable lowercase name ("auto", "dense", ...) for messages and keys. */
const char *kernelModeName(KernelMode mode);

/** Parse a requestable kernel ("auto" or "dense"); false (out
 * untouched) on anything else. */
bool parseKernelMode(std::string_view text, KernelMode &out);

/**
 * Applies a HeatDistributionMatrix to a streaming per-minute power history:
 * keeps a ring buffer of the last `horizon` power vectors and produces each
 * server's inlet temperature rise above the supply temperature.
 */
class MatrixThermalModel
{
  public:
    /**
     * `mode` is Auto or Dense. `precomputed`, when set, must be the
     * result of TemporalFactorization::compute over the same matrix and
     * options; the model reads it instead of re-running the fit
     * (compute() is deterministic, so behavior is bit-identical).
     * Campaign runners use this to factorize a shared heat tensor once.
     */
    explicit MatrixThermalModel(
        HeatDistributionMatrix matrix,
        KernelMode mode = KernelMode::Auto,
        FactorizationOptions factorization = FactorizationOptions(),
        std::shared_ptr<const TemporalFactorization> precomputed = {});

    std::size_t numServers() const { return matrix_.numServers(); }

    /** Append this minute's per-server power vector. Under the streaming
     * kernel this is where the thermal state advances (the recurrence
     * consumes both the new vector and the ring slot it overwrites). */
    void pushPowers(const std::vector<Kilowatts> &powers);

    /** Every server's inlet rise implied by the buffered history, from
     * the active kernel. */
    void computeAllRises(std::vector<double> &rises_out) const;

    /** Largest inlet rise across servers. */
    CelsiusDelta maxInletRise() const;

    /** The streaming kernel's rises, advanced by the last push and served
     * in place (all zero before the first push; empty under dense). */
    const std::vector<double> &streamingRises() const
    { return streamRises_; }

    /** True when no power vector was pushed since construction or the
     * last reset(). */
    bool empty() const { return filled_ == 0; }

    /** The last pushed power vector, numServers() values in kW (zeros
     * while empty()). */
    const double *latestPowers() const;

    /** Clear the power history (e.g., after an outage restart). */
    void reset();

    /**
     * Serialize / restore the mutable state: the power-history ring and,
     * under the streaming kernel, the mode accumulators and cached rises
     * (so a resume is bit-identical -- the recurrence never replays).
     * The matrix and factorization are configuration, rebuilt from the
     * same SimulationConfig on restore, so they do not travel. The
     * section records the active kernel mode; loading a checkpoint
     * written under a different kernel fails with a StateError instead
     * of silently mis-resuming.
     */
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);

    const HeatDistributionMatrix &matrix() const { return matrix_; }

    /** The kernel actually running: Streaming or Dense. */
    KernelMode activeKernel() const { return active_; }

    /** Rank of the streaming factorization (0 on the dense path). */
    std::size_t factorizationRank() const
    { return rankModeBegin_.empty() ? 0 : rankModeBegin_.size() - 1; }

    /** Total exponential modes across ranks (0 unless streaming). */
    std::size_t streamingModeCount() const { return modeDecay_.size(); }

  private:
    void computeAllRisesDense(std::vector<double> &rises_out) const;
    void initStreamingState(const TemporalFactorization &factors);
    void updateStreamingRises();

    HeatDistributionMatrix matrix_;
    KernelMode active_ = KernelMode::Dense;

    /** Power ring, [slot][server] in one contiguous block (SoA) so the
     * dense walk strides unit and auto-vectorizes. */
    std::vector<double> history_;
    std::size_t head_ = 0; //!< next slot index to write
    std::size_t filled_ = 0;

    // Streaming-kernel state: modes flattened across ranks; mode q of
    // rank r lives at [rankModeBegin_[r], rankModeBegin_[r+1]).
    std::vector<double> modeDecay_;   //!< lambda_q
    std::vector<double> modeTail_;    //!< lambda_q^horizon (window exit)
    std::vector<double> modeWeight_;  //!< w_q
    std::vector<std::size_t> rankModeBegin_;
    std::vector<double> modeAccum_;   //!< [q][j] accumulators
    /** Spatial factors transposed, [r][j][i]: the streaming GEMV runs in
     * column-AXPY form (rises[i] += s_j * U[i][j] with i innermost), so
     * the inner loop is independent adds over contiguous memory -- which
     * vectorizes under strict FP semantics, unlike the row-wise serial
     * reduction. */
    std::vector<double> spatialT_;
    std::vector<double> streamRises_; //!< rises cached at last push
    std::vector<double> streamSum_;   //!< per-rank combined state [j]
};

} // namespace ecolo::thermal

#endif // ECOLO_THERMAL_HEAT_MATRIX_HH
