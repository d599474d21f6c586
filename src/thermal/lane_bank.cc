#include "thermal/lane_bank.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace ecolo::thermal {

void
LaneThermalBank::configure(const MatrixThermalModel &reference)
{
    ECOLO_ASSERT(reference.active_ == KernelMode::Streaming,
                 "lane bank requires the streaming kernel");
    n_ = reference.matrix_.numServers();
    horizon_ = reference.matrix_.horizon();
    rank_ = reference.factorizationRank();
    head_ = reference.head_;
    filled_ = reference.filled_;
    modeDecay_ = reference.modeDecay_;
    modeTail_ = reference.modeTail_;
    modeWeight_ = reference.modeWeight_;
    rankModeBegin_ = reference.rankModeBegin_;
    spatialT_ = reference.spatialT_;

    const std::size_t cnt = n_ * kLanes;
    accumK_.assign(modeDecay_.size() * cnt, 0.0);
    ringK_.assign(horizon_ * cnt, 0.0);
    pnewK_.assign(cnt, 0.0);
    sK_.assign(cnt, 0.0);
    risesK_.assign(cnt, 0.0);
}

void
LaneThermalBank::adoptPhase(const MatrixThermalModel &model)
{
    head_ = model.head_;
    filled_ = model.filled_;
}

void
LaneThermalBank::gatherLane(std::size_t l, const MatrixThermalModel &model)
{
    ECOLO_ASSERT(l < kLanes, "lane index out of range");
    ECOLO_ASSERT(model.head_ == head_ && model.filled_ == filled_,
                 "lane model ring phase diverged from the bank");
    const std::size_t accum = modeDecay_.size() * n_;
    for (std::size_t k = 0; k < accum; ++k)
        accumK_[k * kLanes + l] = model.modeAccum_[k];
    const std::size_t ring = horizon_ * n_;
    for (std::size_t k = 0; k < ring; ++k)
        ringK_[k * kLanes + l] = model.history_[k];
    for (std::size_t i = 0; i < n_; ++i)
        risesK_[i * kLanes + l] = model.streamRises_[i];
}

void
LaneThermalBank::scatterLane(std::size_t l, MatrixThermalModel &model) const
{
    ECOLO_ASSERT(l < kLanes, "lane index out of range");
    const std::size_t accum = modeDecay_.size() * n_;
    for (std::size_t k = 0; k < accum; ++k)
        model.modeAccum_[k] = accumK_[k * kLanes + l];
    const std::size_t ring = horizon_ * n_;
    for (std::size_t k = 0; k < ring; ++k)
        model.history_[k] = ringK_[k * kLanes + l];
    for (std::size_t i = 0; i < n_; ++i)
        model.streamRises_[i] = risesK_[i * kLanes + l];
    model.head_ = head_;
    model.filled_ = filled_;
}

void
LaneThermalBank::beginSlot()
{
    std::fill(pnewK_.begin(), pnewK_.end(), 0.0);
}

void
LaneThermalBank::setLanePowers(std::size_t l,
                               const std::vector<Kilowatts> &powers)
{
    ECOLO_ASSERT(l < kLanes && powers.size() == n_,
                 "lane power vector mismatch");
    for (std::size_t j = 0; j < n_; ++j)
        pnewK_[j * kLanes + l] = powers[j].value();
}

void
LaneThermalBank::step()
{
    // One lane-interleaved pass over what MatrixThermalModel::pushPowers
    // + updateStreamingRises do per model, through the same shared
    // kernels (count = N * kLanes instead of N), so per lane every
    // intermediate value is bitwise the scalar one.
    const std::size_t cnt = n_ * kLanes;
    double *slot = &ringK_[head_ * cnt];
    const std::size_t total_modes = modeDecay_.size();
    for (std::size_t q = 0; q < total_modes; ++q) {
        kernels::streamAccumAdvance(&accumK_[q * cnt], pnewK_.data(), slot,
                                    modeDecay_[q], modeTail_[q], cnt);
    }
    std::memcpy(slot, pnewK_.data(), cnt * sizeof(double));
    head_ = (head_ + 1) % horizon_;
    filled_ = std::min(filled_ + 1, horizon_);

    std::fill(risesK_.begin(), risesK_.end(), 0.0);
    for (std::size_t r = 0; r < rank_; ++r) {
        const std::size_t begin = rankModeBegin_[r];
        const std::size_t end = rankModeBegin_[r + 1];
        if (begin == end)
            continue; // a zero factor fits with zero modes
        kernels::streamCombineFirst(sK_.data(), &accumK_[begin * cnt],
                                    modeWeight_[begin], cnt);
        for (std::size_t q = begin + 1; q < end; ++q)
            kernels::streamCombineAdd(sK_.data(), &accumK_[q * cnt],
                                      modeWeight_[q], cnt);
        kernels::laneAccumulateColumnAxpy8(&spatialT_[r * n_ * n_],
                                           sK_.data(), risesK_.data(), n_);
    }
}

} // namespace ecolo::thermal
