#include "thermal/heat_matrix.hh"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hh"
#include "thermal/stream_kernels.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo::thermal {

namespace {

/**
 * The streaming kernel must beat the dense convolution by a real margin
 * before it is selected: rank * (N H + N^2) multiply-adds per minute vs.
 * the dense N^2 H.
 */
constexpr double kStreamingCostAdvantage = 0.75;

/** Stable ids for the checkpoint section (never reuse: 2 was the retired
 * factorized kernel, so its checkpoints fail to load). */
constexpr std::uint32_t kDenseStateId = 1;
constexpr std::uint32_t kStreamingStateId = 3;

constexpr std::uint32_t
kernelModeId(KernelMode mode)
{
    return mode == KernelMode::Streaming ? kStreamingStateId
                                         : kDenseStateId;
}

} // namespace

const char *
kernelModeName(KernelMode mode)
{
    switch (mode) {
      case KernelMode::Auto:
        return "auto";
      case KernelMode::Dense:
        return "dense";
      case KernelMode::Streaming:
        return "streaming";
    }
    return "dense";
}

bool
parseKernelMode(std::string_view text, KernelMode &out)
{
    for (KernelMode mode : {KernelMode::Auto, KernelMode::Dense}) {
        if (text == kernelModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

HeatDistributionMatrix::HeatDistributionMatrix(std::size_t num_servers,
                                               std::size_t horizon_minutes)
    : numServers_(num_servers), horizon_(horizon_minutes),
      coeffs_(num_servers * num_servers * horizon_minutes, 0.0)
{
    ECOLO_ASSERT(num_servers > 0 && horizon_minutes > 0,
                 "degenerate heat distribution matrix");
}

double &
HeatDistributionMatrix::coeff(std::size_t i, std::size_t j, std::size_t tau)
{
    ECOLO_ASSERT(i < numServers_ && j < numServers_ && tau < horizon_,
                 "matrix index out of range");
    gainsDirty_ = true;
    return coeffs_[(i * numServers_ + j) * horizon_ + tau];
}

double
HeatDistributionMatrix::coeff(std::size_t i, std::size_t j,
                              std::size_t tau) const
{
    ECOLO_ASSERT(i < numServers_ && j < numServers_ && tau < horizon_,
                 "matrix index out of range");
    return coeffs_[(i * numServers_ + j) * horizon_ + tau];
}

void
HeatDistributionMatrix::ensureGainCache() const
{
    if (!gainsDirty_)
        return;
    steadyGains_.assign(numServers_ * numServers_, 0.0);
    totalGains_.assign(numServers_, 0.0);
    for (std::size_t i = 0; i < numServers_; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < numServers_; ++j) {
            const double *cell =
                &coeffs_[(i * numServers_ + j) * horizon_];
            double sum = 0.0;
            for (std::size_t tau = 0; tau < horizon_; ++tau)
                sum += cell[tau];
            steadyGains_[i * numServers_ + j] = sum;
            row += sum;
        }
        totalGains_[i] = row;
    }
    gainsDirty_ = false;
}

double
HeatDistributionMatrix::steadyGain(std::size_t i, std::size_t j) const
{
    ECOLO_ASSERT(i < numServers_ && j < numServers_,
                 "matrix index out of range");
    ensureGainCache();
    return steadyGains_[i * numServers_ + j];
}

double
HeatDistributionMatrix::totalSteadyGain(std::size_t i) const
{
    ECOLO_ASSERT(i < numServers_, "matrix index out of range");
    ensureGainCache();
    return totalGains_[i];
}

HeatDistributionMatrix
HeatDistributionMatrix::analyticDefault(const power::DataCenterLayout &layout,
                                        AnalyticParams params,
                                        std::size_t horizon_minutes)
{
    const std::size_t n = layout.numServers();
    HeatDistributionMatrix matrix(n, horizon_minutes);

    // Temporal kernel: increments of 1 - exp(-t/T), normalized to sum 1 so
    // the per-pair steady gain equals the spatial coefficient.
    std::vector<double> kernel(horizon_minutes);
    double kernel_sum = 0.0;
    const double rise = std::max(params.riseTimeMinutes, 1e-6);
    for (std::size_t tau = 0; tau < horizon_minutes; ++tau) {
        const double t0 = static_cast<double>(tau);
        kernel[tau] = std::exp(-t0 / rise) - std::exp(-(t0 + 1.0) / rise);
        kernel_sum += kernel[tau];
    }
    for (double &k : kernel)
        k /= kernel_sum;

    const auto per_rack = static_cast<double>(layout.serversPerRack());
    for (std::size_t i = 0; i < n; ++i) {
        const power::RackSlot ri = layout.rackSlotOf(i);
        // Containment leaks more near the top of the rack, so upper slots
        // couple more strongly to everything.
        const double slot_bias =
            1.0 + params.topSlotBias * static_cast<double>(ri.slot) /
                      std::max(1.0, per_rack - 1.0);
        for (std::size_t j = 0; j < n; ++j) {
            const power::RackSlot rj = layout.rackSlotOf(j);
            double gain = params.globalGain / static_cast<double>(n);
            if (i == j) {
                gain += params.selfGain;
            } else if (ri.rack == rj.rack) {
                const double dist = std::abs(
                    static_cast<double>(ri.slot) -
                    static_cast<double>(rj.slot));
                gain += params.neighborGain *
                        std::exp(-dist / params.slotDecay);
            } else {
                gain += params.crossRackGain / per_rack;
            }
            gain *= slot_bias;
            for (std::size_t tau = 0; tau < horizon_minutes; ++tau)
                matrix.coeff(i, j, tau) = gain * kernel[tau];
        }
    }
    matrix.ensureGainCache();
    return matrix;
}

HeatDistributionMatrix
HeatDistributionMatrix::extractFromCfd(
    const power::DataCenterLayout &layout, const CfdParams &cfd_params,
    const std::vector<Kilowatts> &baseline_powers, Kilowatts spike,
    std::size_t horizon_minutes, Seconds settle_time)
{
    const std::size_t n = layout.numServers();
    ECOLO_ASSERT(baseline_powers.size() == n,
                 "baseline power vector size mismatch");
    ECOLO_ASSERT(spike.value() > 0.0, "spike must be positive");

    telemetry::TraceSpan extract_span("cfd.extract");

    // Bring the container to a quasi-steady state once, then reuse it as
    // the starting point of every spike run (the solver is copyable).
    CfdSolver steady(layout, cfd_params);
    steady.setAllServerPowers(baseline_powers);
    steady.run(settle_time);

    HeatDistributionMatrix matrix(n, horizon_minutes);
    // Spike columns j are independent: each worker copies the settled
    // solver and writes the disjoint [*][j][*] slice. The solver is
    // deterministic, so the result is bit-identical to a serial loop.
    // (Direct coeffs_ writes keep workers off the shared dirty flag.)
    double *coeffs = matrix.coeffs_.data();
    util::parallelFor(0, n, [&](std::size_t j) {
        CfdSolver spiked = steady;
        CfdSolver reference = steady;
        std::vector<Kilowatts> powers = baseline_powers;
        powers[j] += spike;
        spiked.setAllServerPowers(powers);

        std::vector<double> prev_rise(n, 0.0);
        for (std::size_t tau = 0; tau < horizon_minutes; ++tau) {
            spiked.run(minutes(1));
            reference.run(minutes(1));
            for (std::size_t i = 0; i < n; ++i) {
                const double rise =
                    (spiked.inletTemperature(i) -
                     reference.inletTemperature(i)).value();
                coeffs[(i * n + j) * horizon_minutes + tau] =
                    (rise - prev_rise[i]) / spike.value();
                prev_rise[i] = rise;
            }
        }
    });
    matrix.ensureGainCache();
    return matrix;
}

MatrixThermalModel::MatrixThermalModel(
    HeatDistributionMatrix matrix, KernelMode mode,
    FactorizationOptions factorization,
    std::shared_ptr<const TemporalFactorization> precomputed)
    : matrix_(std::move(matrix)),
      history_(matrix_.horizon() * matrix_.numServers(), 0.0)
{
    ECOLO_ASSERT(mode == KernelMode::Auto || mode == KernelMode::Dense,
                 "thermal kernel must be requested as auto or dense, not ",
                 kernelModeName(mode));
    if (mode == KernelMode::Dense)
        return;

    const double n = static_cast<double>(matrix_.numServers());
    const double h = static_cast<double>(matrix_.horizon());
    // A precomputed factorization (the campaign setup cache) must have
    // been computed from the same matrix with the same options, so
    // reading it is bit-identical to recomputing -- compute() is
    // deterministic.
    TemporalFactorization computed;
    if (!precomputed)
        computed = TemporalFactorization::compute(matrix_, factorization);
    const TemporalFactorization &factors =
        precomputed ? *precomputed : computed;
    const double streaming_cost =
        static_cast<double>(factors.rank()) * (n * h + n * n);
    const double dense_cost = n * n * h;
    const bool admitted =
        factors.relError() <= factorization.relTolerance &&
        streaming_cost <= kStreamingCostAdvantage * dense_cost &&
        factors.streamingRelError() <= factorization.streamingTolerance;
    if (!admitted) {
        ECOLO_WARN_ONCE(
            "auto thermal kernel falls back to the dense convolution: "
            "rank ", factors.rank(), " factorization error ",
            factors.relError(), " (tolerance ", factorization.relTolerance,
            "), exponential-fit error ", factors.streamingRelError(),
            " (tolerance ", factorization.streamingTolerance, ")");
        return;
    }
    active_ = KernelMode::Streaming;
    initStreamingState(factors);
}

void
MatrixThermalModel::initStreamingState(const TemporalFactorization &factors)
{
    const std::size_t n = matrix_.numServers();
    const std::size_t rank = factors.rank();
    const double horizon = static_cast<double>(matrix_.horizon());

    rankModeBegin_.assign(rank + 1, 0);
    for (std::size_t r = 0; r < rank; ++r) {
        rankModeBegin_[r + 1] =
            rankModeBegin_[r] + factors.temporalFit(r).modes.size();
    }
    const std::size_t total_modes = rankModeBegin_[rank];
    modeDecay_.resize(total_modes);
    modeTail_.resize(total_modes);
    modeWeight_.resize(total_modes);
    for (std::size_t r = 0; r < rank; ++r) {
        const auto &modes = factors.temporalFit(r).modes;
        for (std::size_t m = 0; m < modes.size(); ++m) {
            const std::size_t q = rankModeBegin_[r] + m;
            modeDecay_[q] = modes[m].decay;
            modeTail_[q] = std::pow(modes[m].decay, horizon);
            modeWeight_[q] = modes[m].weight;
        }
    }
    modeAccum_.assign(total_modes * n, 0.0);
    spatialT_.assign(rank * n * n, 0.0);
    for (std::size_t r = 0; r < rank; ++r) {
        const double *u = factors.spatial(r).data();
        double *ut = &spatialT_[r * n * n];
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                ut[j * n + i] = u[i * n + j];
    }
    streamRises_.assign(n, 0.0);
    streamSum_.assign(n, 0.0);
}

void
MatrixThermalModel::pushPowers(const std::vector<Kilowatts> &powers)
{
    const std::size_t n = matrix_.numServers();
    const std::size_t horizon = matrix_.horizon();
    ECOLO_ASSERT(powers.size() == n, "power vector size mismatch");
    double *slot = &history_[head_ * n];
    if (active_ == KernelMode::Streaming) {
        // `slot` still holds P(t - H) -- exactly the sample leaving the
        // window (zeros while warming up, so the correction is a no-op
        // then): a_q <- lambda_q a_q + P(t) - lambda_q^H P(t - H).
        const std::size_t total_modes = modeDecay_.size();
        for (std::size_t q = 0; q < total_modes; ++q) {
            double *a = &modeAccum_[q * n];
            const double lambda = modeDecay_[q];
            const double tail = modeTail_[q];
            for (std::size_t j = 0; j < n; ++j)
                a[j] = lambda * a[j] + powers[j].value() - tail * slot[j];
        }
    }
    for (std::size_t j = 0; j < n; ++j)
        slot[j] = powers[j].value();
    if (++head_ == horizon)
        head_ = 0;
    filled_ = std::min(filled_ + 1, horizon);
    if (active_ == KernelMode::Streaming)
        updateStreamingRises();
}

void
MatrixThermalModel::computeAllRises(std::vector<double> &rises_out) const
{
    if (active_ == KernelMode::Streaming) {
        // The recurrence already advanced in pushPowers; serve the cache.
        rises_out.assign(streamRises_.begin(), streamRises_.end());
        return;
    }
    computeAllRisesDense(rises_out);
}

void
MatrixThermalModel::computeAllRisesDense(std::vector<double> &rises_out)
    const
{
    const std::size_t n = matrix_.numServers();
    const std::size_t horizon = matrix_.horizon();
    rises_out.assign(n, 0.0);
    for (std::size_t tau = 0; tau < filled_; ++tau) {
        const std::size_t pos = (head_ + horizon - 1 - tau) % horizon;
        const double *powers = &history_[pos * n];
        for (std::size_t i = 0; i < n; ++i) {
            double acc = 0.0;
            for (std::size_t j = 0; j < n; ++j)
                acc += matrix_.coeff(i, j, tau) * powers[j];
            rises_out[i] += acc;
        }
    }
}

void
MatrixThermalModel::updateStreamingRises()
{
    const std::size_t n = matrix_.numServers();
    const std::size_t rank = factorizationRank();
    double *rises = streamRises_.data();
    std::fill(rises, rises + n, 0.0);
    for (std::size_t r = 0; r < rank; ++r) {
        // Combine the rank's mode accumulators into its smoothed state
        // s_r[j] = sum_m w_m a_m[j] ...
        const std::size_t begin = rankModeBegin_[r];
        const std::size_t end = rankModeBegin_[r + 1];
        if (begin == end)
            continue; // a zero factor fits with zero modes
        double *s = streamSum_.data();
        for (std::size_t j = 0; j < n; ++j)
            s[j] = modeWeight_[begin] * modeAccum_[begin * n + j];
        for (std::size_t q = begin + 1; q < end; ++q)
            for (std::size_t j = 0; j < n; ++j)
                s[j] += modeWeight_[q] * modeAccum_[q * n + j];
        // ... then the spatial GEMV, rises += U_r s_r (see
        // stream_kernels.hh for the layout and dispatch story).
        kernels::accumulateColumnAxpy(&spatialT_[r * n * n], s, rises, n);
    }
}

CelsiusDelta
MatrixThermalModel::maxInletRise() const
{
    std::vector<double> rises;
    computeAllRises(rises);
    double best = 0.0;
    for (double rise : rises)
        best = std::max(best, rise);
    return CelsiusDelta(best);
}

const double *
MatrixThermalModel::latestPowers() const
{
    const std::size_t horizon = matrix_.horizon();
    return &history_[(head_ + horizon - 1) % horizon * matrix_.numServers()];
}

void
MatrixThermalModel::reset()
{
    std::fill(history_.begin(), history_.end(), 0.0);
    std::fill(modeAccum_.begin(), modeAccum_.end(), 0.0);
    std::fill(streamRises_.begin(), streamRises_.end(), 0.0);
    head_ = 0;
    filled_ = 0;
}

void
MatrixThermalModel::saveState(util::StateWriter &writer) const
{
    // THS2: v1 ("THIS") stored the ring as per-slot vectors and knew no
    // kernel modes; v2 stores the flat SoA ring, the active kernel, and
    // the streaming accumulators (empty vectors off the streaming path).
    writer.tag("THS2");
    writer.u32(kernelModeId(active_));
    writer.u64(matrix_.horizon());
    writer.u64(matrix_.numServers());
    writer.f64Vector(history_);
    writer.u64(head_);
    writer.u64(filled_);
    writer.f64Vector(modeAccum_);
    writer.f64Vector(streamRises_);
}

void
MatrixThermalModel::loadState(util::StateReader &reader)
{
    reader.tag("THS2");
    const std::uint32_t saved_mode = reader.u32();
    if (reader.ok() && saved_mode != kernelModeId(active_)) {
        const char *saved_name = saved_mode == kDenseStateId ? "dense"
                                 : saved_mode == kStreamingStateId
                                     ? "streaming"
                                     : "unknown";
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "thermal kernel mode mismatch: checkpoint was written under "
            "the '", saved_name, "' kernel but the model resolved to '",
            kernelModeName(active_),
            "'; resume with the same thermal.kernel setting (the "
            "streaming accumulators are not portable across kernels)"));
        return;
    }
    const std::uint64_t slots = reader.u64();
    const std::uint64_t width = reader.u64();
    if (reader.ok() && (slots != matrix_.horizon() ||
                        width != matrix_.numServers())) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "thermal history shape mismatch: checkpoint has ", slots,
            " slots x ", width, " servers, model has ", matrix_.horizon(),
            " x ", matrix_.numServers(),
            " (was the checkpoint written with a different config?)"));
        return;
    }
    std::vector<double> history = reader.f64Vector();
    if (reader.ok() && history.size() != history_.size()) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "thermal history length mismatch: checkpoint has ",
            history.size(), " samples, model has ", history_.size()));
        return;
    }
    const std::uint64_t head = reader.u64();
    const std::uint64_t filled = reader.u64();
    // pushPowers writes the slot at head_ and wraps it only on reaching
    // the horizon: an out-of-range head would write past the ring on
    // every push.
    if (reader.ok() && (head >= slots || filled > slots)) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "thermal history ring out of range: checkpoint has head ",
            head, " and ", filled, " filled slots, horizon is ", slots));
        return;
    }
    std::vector<double> accum = reader.f64Vector();
    std::vector<double> rises = reader.f64Vector();
    if (reader.ok() && (accum.size() != modeAccum_.size() ||
                        rises.size() != streamRises_.size())) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "streaming accumulator shape mismatch: checkpoint has ",
            accum.size(), " + ", rises.size(), " values, model expects ",
            modeAccum_.size(), " + ", streamRises_.size(),
            " (different factorization tolerances?)"));
        return;
    }
    if (!reader.ok())
        return;
    history_ = std::move(history);
    head_ = static_cast<std::size_t>(head);
    filled_ = static_cast<std::size_t>(filled);
    modeAccum_ = std::move(accum);
    streamRises_ = std::move(rises);
}

} // namespace ecolo::thermal
