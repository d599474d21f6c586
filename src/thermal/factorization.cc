#include "thermal/factorization.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "thermal/heat_matrix.hh"
#include "util/logging.hh"

namespace ecolo::thermal {

namespace {

/**
 * Cyclic Jacobi eigendecomposition of a symmetric h x h matrix (h is the
 * horizon, typically 10, so cost is negligible). On return `a` holds a
 * near-diagonal matrix whose diagonal are the eigenvalues and `v` the
 * corresponding orthonormal eigenvectors (columns).
 */
void
jacobiEigen(std::vector<double> &a, std::vector<double> &v, std::size_t h)
{
    v.assign(h * h, 0.0);
    for (std::size_t i = 0; i < h; ++i)
        v[i * h + i] = 1.0;

    for (int sweep = 0; sweep < 64; ++sweep) {
        double off = 0.0;
        for (std::size_t p = 0; p < h; ++p)
            for (std::size_t q = p + 1; q < h; ++q)
                off += a[p * h + q] * a[p * h + q];
        if (off < 1e-28 * std::max(1e-300, std::abs(std::accumulate(
                              a.begin(), a.end(), 0.0))))
            break;

        for (std::size_t p = 0; p < h; ++p) {
            for (std::size_t q = p + 1; q < h; ++q) {
                const double apq = a[p * h + q];
                if (std::abs(apq) < 1e-300)
                    continue;
                const double app = a[p * h + p];
                const double aqq = a[q * h + q];
                const double theta = (aqq - app) / (2.0 * apq);
                const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                                 (std::abs(theta) +
                                  std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t k = 0; k < h; ++k) {
                    const double akp = a[k * h + p];
                    const double akq = a[k * h + q];
                    a[k * h + p] = c * akp - s * akq;
                    a[k * h + q] = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < h; ++k) {
                    const double apk = a[p * h + k];
                    const double aqk = a[q * h + k];
                    a[p * h + k] = c * apk - s * aqk;
                    a[q * h + k] = s * apk + c * aqk;
                }
                for (std::size_t k = 0; k < h; ++k) {
                    const double vkp = v[k * h + p];
                    const double vkq = v[k * h + q];
                    v[k * h + p] = c * vkp - s * vkq;
                    v[k * h + q] = s * vkp + c * vkq;
                }
            }
        }
    }
}

/**
 * Solve the m x m system a * x = b in place via Gaussian elimination with
 * partial pivoting (m <= 3 here). Returns false when near-singular --
 * callers treat that as "this Prony order is degenerate, try another".
 */
bool
solveSmallSystem(std::vector<double> &a, std::vector<double> &b,
                 std::size_t m)
{
    double scale = 0.0;
    for (double v : a)
        scale = std::max(scale, std::abs(v));
    if (scale <= 0.0)
        return false;
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < m; ++row) {
            if (std::abs(a[row * m + col]) > std::abs(a[pivot * m + col]))
                pivot = row;
        }
        if (std::abs(a[pivot * m + col]) < 1e-12 * scale)
            return false;
        if (pivot != col) {
            for (std::size_t k = 0; k < m; ++k)
                std::swap(a[col * m + k], a[pivot * m + k]);
            std::swap(b[col], b[pivot]);
        }
        for (std::size_t row = col + 1; row < m; ++row) {
            const double f = a[row * m + col] / a[col * m + col];
            for (std::size_t k = col; k < m; ++k)
                a[row * m + k] -= f * a[col * m + k];
            b[row] -= f * b[col];
        }
    }
    for (std::size_t col = m; col-- > 0;) {
        double acc = b[col];
        for (std::size_t k = col + 1; k < m; ++k)
            acc -= a[col * m + k] * b[k];
        b[col] = acc / a[col * m + col];
    }
    return true;
}

/**
 * Real roots of z^m - c[0] z^(m-1) - ... - c[m-1] = 0 (the Prony
 * characteristic polynomial), closed form for m <= 3. Returns false when
 * any root is complex -- an oscillatory pair this order cannot represent
 * with real decays.
 */
bool
characteristicRoots(const std::vector<double> &c, std::size_t m,
                    std::vector<double> &roots_out)
{
    roots_out.clear();
    if (m == 1) {
        roots_out.push_back(c[0]);
        return true;
    }
    if (m == 2) {
        const double disc = c[0] * c[0] + 4.0 * c[1];
        if (disc < 0.0)
            return false;
        const double s = std::sqrt(disc);
        roots_out.push_back(0.5 * (c[0] + s));
        roots_out.push_back(0.5 * (c[0] - s));
        return true;
    }
    // m == 3: depressed cubic t^3 + p t + q with z = t - a2 / 3.
    const double a2 = -c[0], a1 = -c[1], a0 = -c[2];
    const double p = a1 - a2 * a2 / 3.0;
    const double q = 2.0 * a2 * a2 * a2 / 27.0 - a2 * a1 / 3.0 + a0;
    const double disc = -4.0 * p * p * p - 27.0 * q * q;
    const double magnitude =
        std::max({std::abs(p), std::abs(q), 1e-30});
    if (disc < -1e-12 * magnitude * magnitude * magnitude)
        return false; // one real + complex pair
    if (std::abs(p) < 1e-14 * magnitude) {
        const double t = std::cbrt(-q);
        roots_out.assign(3, t - a2 / 3.0);
        return true;
    }
    if (p > 0.0)
        return false; // disc >= 0 requires p <= 0 away from degeneracy
    const double r = 2.0 * std::sqrt(-p / 3.0);
    const double arg =
        std::clamp(3.0 * q / (p * r), -1.0, 1.0);
    const double theta = std::acos(arg) / 3.0;
    for (int k = 0; k < 3; ++k) {
        roots_out.push_back(
            r * std::cos(theta - 2.0 * M_PI * k / 3.0) - a2 / 3.0);
    }
    return true;
}

} // namespace

ExponentialFit
fitExponentialModes(const std::vector<double> &values,
                    std::size_t max_modes, double rel_tolerance)
{
    const std::size_t h = values.size();
    ExponentialFit best;

    double norm2 = 0.0;
    for (double v : values)
        norm2 += v * v;
    if (norm2 <= 0.0) {
        best.relError = 0.0; // the zero signal: zero modes, exact
        return best;
    }

    std::vector<double> normal, rhs, coeffs, roots, fitted;
    const std::size_t order_cap = std::min(max_modes, h / 2);
    for (std::size_t m = 1; m <= order_cap; ++m) {
        // Linear prediction: v[t] ~= sum_k c_k v[t-k] for t in [m, h).
        normal.assign(m * m, 0.0);
        rhs.assign(m, 0.0);
        for (std::size_t t = m; t < h; ++t) {
            for (std::size_t a = 0; a < m; ++a) {
                rhs[a] += values[t] * values[t - 1 - a];
                for (std::size_t b = a; b < m; ++b) {
                    normal[a * m + b] +=
                        values[t - 1 - a] * values[t - 1 - b];
                }
            }
        }
        for (std::size_t a = 0; a < m; ++a)
            for (std::size_t b = 0; b < a; ++b)
                normal[a * m + b] = normal[b * m + a];
        coeffs = rhs;
        if (!solveSmallSystem(normal, coeffs, m))
            continue;
        if (!characteristicRoots(coeffs, m, roots))
            continue;

        // Stability / conditioning guards. |lambda| == 1 is fine: the
        // streaming window subtracts the exact lambda^H tail, so even a
        // non-decaying mode cannot drift.
        bool usable = true;
        for (double &lam : roots) {
            if (!std::isfinite(lam))
                usable = false;
            else if (std::abs(lam) > 1.0 + 1e-9)
                usable = false;
            else if (std::abs(lam) > 1.0)
                lam = lam > 0.0 ? 1.0 : -1.0;
        }
        for (std::size_t a = 0; usable && a < roots.size(); ++a)
            for (std::size_t b = a + 1; b < roots.size(); ++b)
                if (std::abs(roots[a] - roots[b]) < 1e-9)
                    usable = false;
        if (!usable)
            continue;

        // Weights: least-squares on the Vandermonde columns lambda^tau.
        normal.assign(m * m, 0.0);
        rhs.assign(m, 0.0);
        for (std::size_t t = 0; t < h; ++t) {
            const double td = static_cast<double>(t);
            for (std::size_t a = 0; a < m; ++a) {
                const double ea = std::pow(roots[a], td);
                rhs[a] += ea * values[t];
                for (std::size_t b = a; b < m; ++b)
                    normal[a * m + b] += ea * std::pow(roots[b], td);
            }
        }
        for (std::size_t a = 0; a < m; ++a)
            for (std::size_t b = 0; b < a; ++b)
                normal[a * m + b] = normal[b * m + a];
        std::vector<double> weights = rhs;
        if (!solveSmallSystem(normal, weights, m))
            continue;

        fitted.assign(h, 0.0);
        for (std::size_t a = 0; a < m; ++a)
            for (std::size_t t = 0; t < h; ++t)
                fitted[t] +=
                    weights[a] * std::pow(roots[a],
                                          static_cast<double>(t));
        double err2 = 0.0;
        for (std::size_t t = 0; t < h; ++t) {
            const double d = values[t] - fitted[t];
            err2 += d * d;
        }
        const double rel = std::sqrt(err2 / norm2);
        if (rel < best.relError) {
            best.relError = rel;
            best.modes.clear();
            for (std::size_t a = 0; a < m; ++a)
                best.modes.push_back({weights[a], roots[a]});
        }
        if (best.relError <= rel_tolerance)
            break;
    }
    return best;
}

TemporalFactorization
TemporalFactorization::compute(const HeatDistributionMatrix &matrix,
                               FactorizationOptions opts)
{
    const std::size_t n = matrix.numServers();
    const std::size_t h = matrix.horizon();
    const std::size_t pairs = n * n;

    TemporalFactorization out;
    out.numServers_ = n;
    out.horizon_ = h;

    // Gram matrix C = B^T B of the mode-3 unfolding B[(i,j)][tau].
    std::vector<double> gram(h * h, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t a = 0; a < h; ++a) {
                const double ca = matrix.coeff(i, j, a);
                for (std::size_t b = a; b < h; ++b)
                    gram[a * h + b] += ca * matrix.coeff(i, j, b);
            }
        }
    }
    for (std::size_t a = 0; a < h; ++a)
        for (std::size_t b = 0; b < a; ++b)
            gram[a * h + b] = gram[b * h + a];

    double total = 0.0; // trace(C) = ||B||_F^2
    for (std::size_t a = 0; a < h; ++a)
        total += gram[a * h + a];
    if (total <= 0.0) {
        out.relError_ = 0.0; // all-zero tensor: rank 0 is exact
        return out;
    }

    std::vector<double> eigvecs;
    jacobiEigen(gram, eigvecs, h);

    std::vector<std::size_t> order(h);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return gram[a * h + a] > gram[b * h + b];
    });

    // suffix[r] = residual ||B - B_r||_F^2 of the rank-r truncation.
    std::vector<double> suffix(h + 1, 0.0);
    for (std::size_t r = h; r-- > 0;) {
        suffix[r] = suffix[r + 1] +
                    std::max(0.0, gram[order[r] * h + order[r]]);
    }
    const std::size_t max_rank =
        opts.maxRank > 0 ? std::min(opts.maxRank, h) : h;
    std::size_t rank = max_rank;
    for (std::size_t r = 0; r <= max_rank; ++r) {
        if (std::sqrt(suffix[r] / total) <= opts.relTolerance) {
            rank = r;
            break;
        }
    }
    out.relError_ = std::sqrt(suffix[rank] / total);

    out.temporal_.reserve(rank);
    out.spatial_.reserve(rank);
    for (std::size_t r = 0; r < rank; ++r) {
        const std::size_t col = order[r];
        std::vector<double> v(h);
        for (std::size_t a = 0; a < h; ++a)
            v[a] = eigvecs[a * h + col];
        // Spatial factor U_r = B v_r (carries the singular-value scale).
        std::vector<double> u(pairs, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                double acc = 0.0;
                for (std::size_t a = 0; a < h; ++a)
                    acc += matrix.coeff(i, j, a) * v[a];
                u[i * n + j] = acc;
            }
        }
        out.temporal_.push_back(std::move(v));
        out.spatial_.push_back(std::move(u));
    }

    // Exponential-mode fits per factor, and the streaming fit residual:
    // each factor's misfit scaled by its singular value (sigma_r^2 ==
    // ||U_r||_F^2 since U_r = B v_r). The truncation residual is NOT
    // included -- truncation is gated separately by relTolerance, so the
    // streaming admission gate measures only the error the fits add on top.
    // (suffix[rank] is also a cancellation-limited estimate: for the
    // analytic rank-1 tensor it floors near sqrt(eps) while the actual
    // reconstruction is exact to ~1e-12, and gating on it would wrongly
    // reject a machine-exact fit.)
    double stream_err2 = 0.0;
    out.fits_.reserve(rank);
    for (std::size_t r = 0; r < rank; ++r) {
        ExponentialFit fit = fitExponentialModes(
            out.temporal_[r], opts.maxModesPerFactor,
            opts.streamingTolerance);
        double sigma2 = 0.0;
        for (double u : out.spatial_[r])
            sigma2 += u * u;
        stream_err2 += sigma2 * fit.relError * fit.relError;
        out.fits_.push_back(std::move(fit));
    }
    out.streamingRelError_ = std::sqrt(std::max(0.0, stream_err2) / total);
    return out;
}

} // namespace ecolo::thermal
