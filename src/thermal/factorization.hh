/**
 * @file
 * Truncated separable factorization of a heat-distribution tensor.
 *
 * The impulse-response tensor h[i][j][tau] is, for the analytic default,
 * *exactly* separable: h = G[i][j] * k[tau] (spatial gain times a shared
 * temporal kernel). CFD-extracted tensors are close to separable -- the
 * airflow pattern fixes the spatial structure while the thermal build-up
 * fixes the temporal shape -- so a few separable terms reproduce them to
 * within extraction noise. This module computes the optimal (in the
 * Frobenius sense) rank-R decomposition
 *
 *     h[i][j][tau] ~= sum_r  U_r[i][j] * V_r[tau]
 *
 * via an eigendecomposition of the H x H Gram matrix of the mode-3
 * unfolding (H = horizon, typically 10), which is exactly the truncated
 * SVD of that unfolding.
 *
 * The factors only feed the next step: each temporal factor is fitted
 * with a short sum of exponential modes, V_r[tau] ~= sum_m w_m *
 * lambda_m^tau (Prony's method). A factor that admits such a fit turns
 * its temporally-smoothed power state into a *streaming recurrence* --
 * each mode accumulator updates as a <- lambda * a + p, with an exact
 * window-tail correction -- so MatrixThermalModel::pushPowers advances
 * the thermal state in O(N) per mode with no history traversal at all,
 * plus R N x N GEMVs (KernelMode::Streaming). The analytic default
 * kernel, increments of 1 - exp(-t/T), is *exactly* one exponential mode
 * with lambda = exp(-1/T), so the fit is machine-exact there; a tensor
 * whose combined fit residual exceeds
 * FactorizationOptions::streamingTolerance runs the dense convolution.
 */

#ifndef ECOLO_THERMAL_FACTORIZATION_HH
#define ECOLO_THERMAL_FACTORIZATION_HH

#include <cstddef>
#include <vector>

namespace ecolo::thermal {

class HeatDistributionMatrix;

/** Knobs for the truncated factorization. */
struct FactorizationOptions
{
    /**
     * Relative Frobenius-norm reconstruction error bound: the smallest
     * rank meeting it is chosen. The analytic matrix factorizes at rank 1
     * with error ~1e-16; CFD tensors typically need 2-4 terms at 1e-6.
     */
    double relTolerance = 1e-6;
    /** Largest admissible rank; 0 means the full horizon (exact). */
    std::size_t maxRank = 0;
    /**
     * Admission bound for the streaming kernel: the relative error the
     * exponential-mode fits add on top of the factorized reconstruction
     * must stay below this for Auto to stream. The analytic kernel fits
     * at ~1e-16; tensors that fit worse run the dense convolution.
     */
    double streamingTolerance = 1e-9;
    /** Most exponential modes tried per temporal factor (Prony order). */
    std::size_t maxModesPerFactor = 3;
};

/** One term of an exponential-sum fit: weight * decay^tau. */
struct ExponentialMode
{
    double weight = 0.0;
    double decay = 0.0; //!< |decay| <= 1 so the recurrence is stable
};

/** Exponential-sum fit of one temporal factor. */
struct ExponentialFit
{
    std::vector<ExponentialMode> modes;
    /** Relative L2 misfit ||v - fit|| / ||v||; 1.0 when nothing fit. */
    double relError = 1.0;
};

/**
 * Fit `values` (length >= 1) with at most max_modes exponential terms via
 * Prony's method: linear-prediction least squares for the characteristic
 * polynomial, closed-form real roots (order <= 3), then a Vandermonde
 * least-squares solve for the weights. Stops at the first order whose
 * relative misfit is <= rel_tolerance; otherwise returns the best order
 * tried. Complex, unstable (|lambda| > 1), or near-duplicate roots reject
 * that order. An all-zero input fits exactly with zero modes.
 */
ExponentialFit fitExponentialModes(const std::vector<double> &values,
                                   std::size_t max_modes,
                                   double rel_tolerance);

/** The computed factors, ordered by decreasing singular value. */
class TemporalFactorization
{
  public:
    /** An empty rank-0 factorization (placeholder until compute()). */
    TemporalFactorization() = default;

    /** Factorize the given tensor. Always succeeds: at rank == horizon
     * the decomposition is numerically exact, so the achieved error only
     * exceeds opts.relTolerance when opts.maxRank truncates it. */
    static TemporalFactorization
    compute(const HeatDistributionMatrix &matrix,
            FactorizationOptions opts = FactorizationOptions());

    std::size_t rank() const { return temporal_.size(); }
    std::size_t numServers() const { return numServers_; }
    std::size_t horizon() const { return horizon_; }

    /** Achieved relative Frobenius reconstruction error. */
    double relError() const { return relError_; }

    /** Spatial factor U_r, row-major N x N (includes the sigma scale). */
    const std::vector<double> &spatial(std::size_t r) const
    { return spatial_.at(r); }

    /** Temporal factor V_r, length horizon, unit Euclidean norm. */
    const std::vector<double> &temporal(std::size_t r) const
    { return temporal_.at(r); }

    /** Exponential-mode fit of temporal factor r (for streaming). */
    const ExponentialFit &temporalFit(std::size_t r) const
    { return fits_.at(r); }

    /**
     * Relative Frobenius error the exponential-mode fits add on top of
     * the factorized reconstruction: the per-factor misfits weighted by
     * their singular values. This is the number the streaming kernel's
     * admission is gated on; the end-to-end error against the dense
     * tensor is bounded by relError() + streamingRelError().
     */
    double streamingRelError() const { return streamingRelError_; }

  private:
    std::size_t numServers_ = 0;
    std::size_t horizon_ = 0;
    double relError_ = 0.0;
    double streamingRelError_ = 0.0;
    std::vector<std::vector<double>> spatial_;
    std::vector<std::vector<double>> temporal_;
    std::vector<ExponentialFit> fits_;
};

} // namespace ecolo::thermal

#endif // ECOLO_THERMAL_FACTORIZATION_HH
