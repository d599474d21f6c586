#include "core/setup_cache.hh"

#include <algorithm>
#include <bit>

namespace ecolo::core {

namespace {

/** FNV-1a over 64-bit words (doubles hashed by bit pattern, so any
 * representational difference changes the key). */
class Fnv
{
  public:
    Fnv &word(std::uint64_t w)
    {
        // Mix byte-wise so every bit of the word lands in the state.
        for (int shift = 0; shift < 64; shift += 8) {
            state_ ^= (w >> shift) & 0xffULL;
            state_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    Fnv &real(double v) { return word(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void
hashDiurnal(Fnv &h, const trace::DiurnalTraceGenerator::Params &p)
{
    h.real(p.baseUtilization)
        .real(p.diurnalAmplitude)
        .real(p.peakHour)
        .real(p.secondaryAmplitude)
        .real(p.secondaryPeakHour)
        .real(p.weekendFactor)
        .real(p.noiseSigma)
        .real(p.noisePhi)
        .real(p.burstsPerDay)
        .real(p.burstMagnitude)
        .real(p.burstDurationMinutes);
}

void
hashGoogle(Fnv &h, const trace::GoogleStyleTraceGenerator::Params &p)
{
    h.word(p.plateauLevels.size());
    for (double level : p.plateauLevels)
        h.real(level);
    h.real(p.meanDwellMinutes)
        .real(p.diurnalAmplitude)
        .real(p.peakHour)
        .real(p.noiseSigma)
        .real(p.noisePhi)
        .real(p.burstsPerDay)
        .real(p.burstMagnitude)
        .real(p.burstDurationMinutes);
}

} // namespace

std::shared_ptr<const SetupCache::TraceSet>
SetupCache::traceSet(std::uint64_t key,
                     const std::function<TraceSet()> &make)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = traceSets_.find(key);
        if (it != traceSets_.end()) {
            ++counters_.traceHits;
            // Refresh recency, so a hot key outlives one-off misses.
            traceOrder_.erase(
                std::find(traceOrder_.begin(), traceOrder_.end(), key));
            traceOrder_.push_back(key);
            return it->second;
        }
        ++counters_.traceMisses;
    }
    // Compute outside the lock: concurrent misses on one key both pay
    // the generation cost, but the results are identical and the loser
    // is simply discarded -- better than serializing the whole campaign
    // behind one ~1 s trace generation.
    auto value = std::make_shared<const TraceSet>(make());
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = traceSets_.emplace(key, value);
    if (!inserted)
        return it->second;
    traceOrder_.push_back(key);
    while (traceOrder_.size() > kMaxTraceSets) {
        traceSets_.erase(traceOrder_.front());
        traceOrder_.pop_front();
    }
    return value;
}

double
SetupCache::scaleFactor(std::uint64_t key,
                        const std::function<double()> &make)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = scaleFactors_.find(key);
        if (it != scaleFactors_.end()) {
            ++counters_.scaleHits;
            return it->second;
        }
        ++counters_.scaleMisses;
    }
    const double value = make();
    std::lock_guard<std::mutex> lock(mutex_);
    return scaleFactors_.emplace(key, value).first->second;
}

std::shared_ptr<const thermal::HeatDistributionMatrix>
SetupCache::matrix(
    std::uint64_t key,
    const std::function<thermal::HeatDistributionMatrix()> &make)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = matrices_.find(key);
        if (it != matrices_.end()) {
            ++counters_.matrixHits;
            return it->second;
        }
        ++counters_.matrixMisses;
    }
    auto value =
        std::make_shared<const thermal::HeatDistributionMatrix>(make());
    std::lock_guard<std::mutex> lock(mutex_);
    return matrices_.emplace(key, value).first->second;
}

std::shared_ptr<const thermal::TemporalFactorization>
SetupCache::factorization(
    std::uint64_t key,
    const std::function<thermal::TemporalFactorization()> &make)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = factorizations_.find(key);
        if (it != factorizations_.end()) {
            ++counters_.factorizationHits;
            return it->second;
        }
        ++counters_.factorizationMisses;
    }
    auto value =
        std::make_shared<const thermal::TemporalFactorization>(make());
    std::lock_guard<std::mutex> lock(mutex_);
    return factorizations_.emplace(key, value).first->second;
}

SetupCache::Counters
SetupCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::uint64_t
SetupCache::traceSetKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0x7261cE5eULL) // domain separator
        .word(config.seed)
        .word(static_cast<std::uint64_t>(config.traceKind))
        .word(config.numBenignTenants);
    switch (config.traceKind) {
      case TraceKind::Diurnal:
        hashDiurnal(h, config.diurnalParams);
        break;
      case TraceKind::GoogleStyle:
        hashGoogle(h, config.googleParams);
        break;
      case TraceKind::RequestLevel:
        // The request-level generator's parameters are derived from the
        // tenant index alone (no config fields); kind + count suffice.
        break;
    }
    return h.value();
}

std::uint64_t
SetupCache::scaleFactorKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0x5ca1eFacULL)
        .word(traceSetKey(config))
        .real(config.serverSpec.idlePower.value())
        .real(config.serverSpec.peakPower.value())
        .word(config.numBenignTenants)
        .word(config.serversPerBenignTenant())
        .real(config.capacity.value())
        .real(config.averageUtilization)
        .real(config.attackerStandbyUtilization)
        .word(config.attackerNumServers);
    return h.value();
}

std::uint64_t
SetupCache::matrixKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0x6eA7a712ULL)
        .word(config.layout.numRacks)
        .word(config.layout.serversPerRack)
        .real(config.matrixParams.selfGain)
        .real(config.matrixParams.neighborGain)
        .real(config.matrixParams.slotDecay)
        .real(config.matrixParams.crossRackGain)
        .real(config.matrixParams.globalGain)
        .real(config.matrixParams.riseTimeMinutes)
        .real(config.matrixParams.topSlotBias)
        .word(config.matrixHorizonMinutes);
    return h.value();
}

std::uint64_t
SetupCache::factorizationKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0xFac70125ULL)
        .word(matrixKey(config))
        .real(config.factorization.relTolerance)
        .word(config.factorization.maxRank)
        .real(config.factorization.streamingTolerance)
        .word(config.factorization.maxModesPerFactor);
    return h.value();
}

} // namespace ecolo::core
