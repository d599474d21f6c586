#include "core/policies.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ecolo::core {

namespace {

/** Charge-if-useful fallback shared by the non-attacking branches. */
AttackAction
idleAction(const AttackObservation &obs)
{
    return obs.batterySoc < 1.0 - 1e-9 ? AttackAction::Charge
                                       : AttackAction::Standby;
}

} // namespace

AttackAction
StandbyPolicy::decide(const AttackObservation &obs)
{
    // Keep the battery topped up so the baseline is cost-comparable.
    return idleAction(obs);
}

RandomPolicy::RandomPolicy(double attack_probability, double min_attack_soc,
                           Rng rng)
    : attackProbability_(attack_probability), minAttackSoc_(min_attack_soc),
      rng_(rng)
{
    ECOLO_ASSERT(attack_probability >= 0.0 && attack_probability <= 1.0,
                 "attack probability out of [0,1]");
}

AttackAction
RandomPolicy::decide(const AttackObservation &obs)
{
    if (obs.outage || obs.cappingActive)
        return idleAction(obs);
    if (obs.batterySoc >= minAttackSoc_ &&
        rng_.bernoulli(attackProbability_)) {
        return AttackAction::Attack;
    }
    return idleAction(obs);
}

void
RandomPolicy::saveState(util::StateWriter &writer) const
{
    writer.tag("RPOL");
    rng_.saveState(writer);
}

void
RandomPolicy::loadState(util::StateReader &reader)
{
    reader.tag("RPOL");
    rng_.loadState(reader);
}

MyopicPolicy::MyopicPolicy(Kilowatts load_threshold,
                           double min_continue_soc, double min_start_soc)
    : loadThreshold_(load_threshold), minContinueSoc_(min_continue_soc),
      minStartSoc_(min_start_soc)
{
    ECOLO_ASSERT(min_continue_soc <= min_start_soc,
                 "continue threshold above start threshold");
}

AttackAction
MyopicPolicy::decide(const AttackObservation &obs)
{
    if (obs.outage || obs.cappingActive) {
        attacking_ = false; // oblige the emergency protocol
        return idleAction(obs);
    }
    if (obs.estimatedLoad < loadThreshold_) {
        attacking_ = false;
        return idleAction(obs);
    }
    const double needed = attacking_ ? minContinueSoc_ : minStartSoc_;
    if (obs.batterySoc >= needed) {
        attacking_ = true;
        return AttackAction::Attack;
    }
    attacking_ = false;
    return idleAction(obs);
}

void
MyopicPolicy::saveState(util::StateWriter &writer) const
{
    writer.tag("MPOL");
    writer.boolean(attacking_);
}

void
MyopicPolicy::loadState(util::StateReader &reader)
{
    reader.tag("MPOL");
    attacking_ = reader.boolean();
}

ForesightedPolicy::ForesightedPolicy(Params params, Rng rng)
    : params_(params), stateSpace_(params.stateSpace),
      learner_(stateSpace_.numStates(), kNumAttackActions,
               [this](std::size_t s, int a) { return postStateOf(s, a); },
               params.learner),
      rng_(rng)
{
}

double
ForesightedPolicy::socDeltaPerMinute(AttackAction action) const
{
    const auto &batt = params_.battery;
    switch (action) {
      case AttackAction::Charge:
        return batt.maxChargeRate.value() * batt.chargeEfficiency /
               (batt.capacity.value() * 60.0);
      case AttackAction::Attack:
        return -params_.attackLoad.value() /
               (batt.dischargeEfficiency * batt.capacity.value() * 60.0);
      case AttackAction::Standby:
        return 0.0;
    }
    return 0.0;
}

std::size_t
ForesightedPolicy::postStateOf(std::size_t state, int action) const
{
    const std::size_t battery_bin = stateSpace_.batteryBinFromIndex(state);
    const std::size_t load_bin = stateSpace_.loadBinFromIndex(state);
    const double soc = stateSpace_.batteryBinCenter(battery_bin);
    const double next_soc = std::clamp(
        soc + socDeltaPerMinute(static_cast<AttackAction>(action)), 0.0,
        1.0);
    return stateSpace_.indexOfBins(stateSpace_.batteryBinOf(next_soc),
                                   load_bin);
}

AttackAction
ForesightedPolicy::decide(const AttackObservation &obs)
{
    if (obs.outage || obs.cappingActive) {
        // Oblige the operator's emergency protocol; no learning on forced
        // slots.
        return idleAction(obs);
    }
    const int action =
        learner_.selectAction(stateOf(obs), rng_, params_.explore);
    return static_cast<AttackAction>(action);
}

std::size_t
ForesightedPolicy::stateOf(const AttackObservation &obs)
{
    // indexOf is a pure function of (soc, load), so a repeat of the
    // last pair takes its index; the NaN initial pair never repeats.
    if (obs.batterySoc != memoSoc_ ||
        obs.estimatedLoad.value() != memoLoad_) {
        memoSoc_ = obs.batterySoc;
        memoLoad_ = obs.estimatedLoad.value();
        memoState_ = stateSpace_.indexOf(obs.batterySoc, obs.estimatedLoad);
    }
    return memoState_;
}

void
ForesightedPolicy::feedback(const AttackObservation &prev,
                            AttackAction action,
                            const AttackObservation &next)
{
    if (prev.cappingActive || prev.outage)
        return; // forced compliance slots carry no decision to learn from
    const std::size_t state = stateOf(prev);
    const std::size_t next_state = stateOf(next);

    // Eqn. (2): w * [T - T0]^+ - beta(a).
    const double rise = std::max(
        0.0, (next.inletTemperature - params_.baselineInlet).value());
    const double cost = action == AttackAction::Attack ? 1.0 : 0.0;
    const double reward = params_.weight * rise - cost;

    learner_.update(state, static_cast<int>(action), reward, next_state);
}

void
ForesightedPolicy::onDayBoundary(long day)
{
    (void)day;
    learner_.advanceDay();
}

void
ForesightedPolicy::warmStart()
{
    // Rough per-minute supply-temperature gain of attacking, from the
    // aggregate energy-balance rate (~1.3 K per minute per kW of overload
    // for the default container).
    constexpr double rise_per_overload_kw = 1.3;
    double best_attack_q = 0.0;
    for (std::size_t lb = 0; lb < stateSpace_.loadBins(); ++lb) {
        const Kilowatts load = stateSpace_.loadBinCenter(lb);
        const double overload =
            (load + params_.attackLoad - params_.capacity).value();
        const double q_attack =
            params_.weight * std::max(0.0, overload) *
                rise_per_overload_kw -
            1.0;
        best_attack_q = std::max(best_attack_q, q_attack);
        for (std::size_t bb = 0; bb < stateSpace_.batteryBins(); ++bb) {
            const std::size_t s = stateSpace_.indexOfBins(bb, lb);
            const bool has_energy = bb > 0;
            learner_.setQValue(s, static_cast<int>(AttackAction::Attack),
                               has_energy ? q_attack : -1.0);
            learner_.setQValue(s, static_cast<int>(AttackAction::Charge),
                               0.0);
            learner_.setQValue(s, static_cast<int>(AttackAction::Standby),
                               0.0);
        }
    }
    // Stored battery energy is worth roughly the attacks it can fund.
    for (std::size_t bb = 0; bb < stateSpace_.batteryBins(); ++bb) {
        const double soc = stateSpace_.batteryBinCenter(bb);
        const double minutes_of_attack =
            soc * params_.battery.capacity.value() *
            params_.battery.dischargeEfficiency /
            (params_.attackLoad.value() / 60.0);
        const double value =
            0.25 * std::max(0.0, best_attack_q) * minutes_of_attack;
        for (std::size_t lb = 0; lb < stateSpace_.loadBins(); ++lb)
            learner_.setPostValue(stateSpace_.indexOfBins(bb, lb), value);
    }
}

void
ForesightedPolicy::burnInSchedules(int days)
{
    for (int d = 0; d < days; ++d)
        learner_.advanceDay();
}

AttackAction
ForesightedPolicy::greedyActionFor(double soc, Kilowatts load) const
{
    const std::size_t state = stateSpace_.indexOf(soc, load);
    return static_cast<AttackAction>(learner_.greedyAction(state));
}

VanillaRlPolicy::VanillaRlPolicy(ForesightedPolicy::Params params, Rng rng)
    : params_(params), stateSpace_(params.stateSpace),
      learner_(stateSpace_.numStates(), kNumAttackActions, params.learner),
      rng_(rng)
{
}

AttackAction
VanillaRlPolicy::decide(const AttackObservation &obs)
{
    if (obs.outage || obs.cappingActive)
        return idleAction(obs);
    const std::size_t state =
        stateSpace_.indexOf(obs.batterySoc, obs.estimatedLoad);
    return static_cast<AttackAction>(
        learner_.selectAction(state, rng_, params_.explore));
}

void
VanillaRlPolicy::feedback(const AttackObservation &prev,
                          AttackAction action,
                          const AttackObservation &next)
{
    if (prev.cappingActive || prev.outage)
        return;
    const std::size_t state =
        stateSpace_.indexOf(prev.batterySoc, prev.estimatedLoad);
    const std::size_t next_state =
        stateSpace_.indexOf(next.batterySoc, next.estimatedLoad);
    const double rise = std::max(
        0.0, (next.inletTemperature - params_.baselineInlet).value());
    const double cost = action == AttackAction::Attack ? 1.0 : 0.0;
    learner_.update(state, static_cast<int>(action),
                    params_.weight * rise - cost, next_state);
}

void
VanillaRlPolicy::onDayBoundary(long day)
{
    (void)day;
    learner_.advanceDay();
}

OneShotPolicy::OneShotPolicy(Kilowatts load_threshold,
                             MinuteIndex arm_delay_minutes)
    : loadThreshold_(load_threshold), armDelay_(arm_delay_minutes)
{
}

AttackAction
OneShotPolicy::decide(const AttackObservation &obs)
{
    if (done_ || obs.outage)
        return AttackAction::Standby;
    if (firing_) {
        if (obs.batterySoc <= 1e-6) {
            done_ = true;
            return AttackAction::Standby;
        }
        return AttackAction::Attack; // press on, capping or not
    }
    if (obs.time >= armDelay_ && obs.batterySoc >= 1.0 - 1e-9 &&
        obs.estimatedLoad >= loadThreshold_) {
        firing_ = true;
        return AttackAction::Attack;
    }
    return idleAction(obs);
}

void
OneShotPolicy::saveState(util::StateWriter &writer) const
{
    writer.tag("1POL");
    writer.boolean(firing_);
    writer.boolean(done_);
}

void
OneShotPolicy::loadState(util::StateReader &reader)
{
    reader.tag("1POL");
    firing_ = reader.boolean();
    done_ = reader.boolean();
}

} // namespace ecolo::core
