/**
 * @file
 * Attack policies (Sections III-C and IV).
 *
 *  - StandbyPolicy:     never attacks (no-attack baseline).
 *  - RandomPolicy:      attacks with a fixed probability whenever the
 *                       battery has energy, oblivious of the load.
 *  - MyopicPolicy:      attacks greedily whenever the estimated load
 *                       crosses a threshold and the battery has energy.
 *  - ForesightedPolicy: the paper's batch-Q-learning policy that learns
 *                       when attacking pays off in the long run.
 *  - OneShotPolicy:     waits for a full battery and a high load, then
 *                       discharges everything to force an outage; keeps
 *                       injecting heat even through emergency capping.
 *
 * All repeated-attack policies comply with the operator's emergency
 * protocol (they stop attacking while capping is in force); only the
 * one-shot attacker violates it, since its goal is the outage itself.
 */

#ifndef ECOLO_CORE_POLICIES_HH
#define ECOLO_CORE_POLICIES_HH

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "battery/battery.hh"
#include "core/mdp.hh"
#include "core/rl/batch_q.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace ecolo::core {

/** Interface the simulation engine drives. */
class AttackPolicy
{
  public:
    virtual ~AttackPolicy() = default;

    virtual const char *name() const = 0;

    /** Choose this minute's action from the current observation. */
    virtual AttackAction decide(const AttackObservation &obs) = 0;

    /**
     * Learning hook: the observation that resulted from the last decided
     * action. Non-learning policies ignore it.
     */
    virtual void
    feedback(const AttackObservation &prev, AttackAction action,
             const AttackObservation &next)
    {
        (void)prev;
        (void)action;
        (void)next;
    }

    /** Called once per simulated day (schedules, bookkeeping). */
    virtual void onDayBoundary(long day) { (void)day; }

    /** True if the one-shot attacker ignores capping compliance. */
    virtual bool ignoresCapping() const { return false; }

    /**
     * Checkpoint hooks. Stateless policies need nothing; policies with
     * decision state or an RNG stream override both so a restored run
     * reproduces the uninterrupted one bit-identically. The learning
     * policies (Foresighted/VanillaRL) intentionally keep the default:
     * their tables persist via saveTables/loadTables, and campaign
     * checkpointing (core/fleet) only drives OneShotPolicy.
     */
    virtual void saveState(util::StateWriter &writer) const { (void)writer; }
    virtual void loadState(util::StateReader &reader) { (void)reader; }
};

/** Never attacks. */
class StandbyPolicy : public AttackPolicy
{
  public:
    const char *name() const override { return "Standby"; }
    AttackAction decide(const AttackObservation &obs) override;
};

/** Load-oblivious random attacker. */
class RandomPolicy : public AttackPolicy
{
  public:
    RandomPolicy(double attack_probability, double min_attack_soc, Rng rng);

    const char *name() const override { return "Random"; }
    AttackAction decide(const AttackObservation &obs) override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;

  private:
    double attackProbability_;
    double minAttackSoc_;
    Rng rng_;
};

/**
 * Greedy threshold attacker. Starts an attack burst whenever the
 * estimated load crosses the threshold and the battery holds a useful
 * reserve, then keeps attacking until the operator declares an emergency,
 * the load drops, or the battery runs dry (the paper's Fig. 9 behaviour:
 * "attacks continue until the operator announces a thermal emergency").
 */
class MyopicPolicy : public AttackPolicy
{
  public:
    /**
     * @param load_threshold estimated load (incl. own subscription) that
     *        triggers an attack burst
     * @param min_continue_soc battery level below which an ongoing burst
     *        must stop (one minute's worth of attack energy)
     * @param min_start_soc battery reserve required to *start* a burst;
     *        without it the policy degenerates into one-minute dribbles
     *        that never accumulate heat
     */
    MyopicPolicy(Kilowatts load_threshold, double min_continue_soc,
                 double min_start_soc = 0.5);

    const char *name() const override { return "Myopic"; }
    AttackAction decide(const AttackObservation &obs) override;
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;

    Kilowatts loadThreshold() const { return loadThreshold_; }

  private:
    Kilowatts loadThreshold_;
    double minContinueSoc_;
    double minStartSoc_;
    bool attacking_ = false;
};

/** The paper's reinforcement-learning attacker. */
class ForesightedPolicy : public AttackPolicy
{
  public:
    struct Params
    {
        double weight = 14.0;          //!< w in the reward (Eqn. 2)
        Celsius baselineInlet{27.0};   //!< T_0 in the reward
        Kilowatts capacity{8.0};       //!< data center capacity (context)
        Kilowatts attackLoad{1.0};     //!< battery heat during an attack
        battery::BatterySpec battery{};//!< for post-state battery dynamics
        StateSpace::Params stateSpace{};
        LearnerParams learner{};
        bool explore = true;           //!< epsilon-greedy during learning
    };

    ForesightedPolicy(Params params, Rng rng);

    const char *name() const override { return "Foresighted"; }
    AttackAction decide(const AttackObservation &obs) override;
    void feedback(const AttackObservation &prev, AttackAction action,
                  const AttackObservation &next) override;
    void onDayBoundary(long day) override;

    /**
     * Heuristic table initialization standing in for the paper's offline
     * warm start on random traces: seeds Q(s, attack) with the immediate
     * overload-driven temperature gain minus the unit cost, and the
     * post-state values with a battery-energy bonus. Online learning then
     * refines both.
     */
    void warmStart();

    /**
     * Advance the learning-rate and exploration schedules as if the
     * learner had already trained for the given number of days. The paper
     * initializes its Q tables offline on random power traces before the
     * online year starts; the offline phase both shapes the tables
     * (warmStart) and burns in the schedules -- without the burn-in, the
     * day-one learning rate (delta = 1) simply overwrites the offline
     * tables with single-sample estimates.
     */
    void burnInSchedules(int days);

    /** Greedy action for an arbitrary (soc, load) pair -- Fig. 10 dumps. */
    AttackAction greedyActionFor(double soc, Kilowatts load) const;

    /** Persist / restore the learned tables (train once, replay later). */
    void saveTables(std::ostream &os) const { learner_.save(os); }
    void loadTables(std::istream &is) { learner_.load(is); }

    const StateSpace &stateSpace() const { return stateSpace_; }
    const BatchQLearning &learner() const { return learner_; }
    const Params &params() const { return params_; }

  private:
    std::size_t postStateOf(std::size_t state, int action) const;
    double socDeltaPerMinute(AttackAction action) const;
    /** stateSpace_.indexOf of the observation's (soc, load). */
    std::size_t stateOf(const AttackObservation &obs);

    Params params_;
    StateSpace stateSpace_;
    BatchQLearning learner_;
    Rng rng_;
    /** The last (soc, load) stateOf indexed, and its state: a slot's
     * decide and the next slot's feedback index the same observation,
     * as do that feedback's next state and the same slot's decide. */
    double memoSoc_ = std::numeric_limits<double>::quiet_NaN();
    double memoLoad_ = std::numeric_limits<double>::quiet_NaN();
    std::size_t memoState_ = 0;
};

/**
 * Ablation variant of ForesightedPolicy that uses textbook one-table
 * Q-learning instead of the paper's batch (post-state) learner. Used by
 * the RL ablation benchmark to quantify how much the post-state
 * factorization buys.
 */
class VanillaRlPolicy : public AttackPolicy
{
  public:
    VanillaRlPolicy(ForesightedPolicy::Params params, Rng rng);

    const char *name() const override { return "VanillaRL"; }
    AttackAction decide(const AttackObservation &obs) override;
    void feedback(const AttackObservation &prev, AttackAction action,
                  const AttackObservation &next) override;
    void onDayBoundary(long day) override;

    const VanillaQLearning &learner() const { return learner_; }

  private:
    ForesightedPolicy::Params params_;
    StateSpace stateSpace_;
    VanillaQLearning learner_;
    Rng rng_;
};

/** Outage-seeking single-strike attacker. */
class OneShotPolicy : public AttackPolicy
{
  public:
    /**
     * @param load_threshold estimated load (incl. own subscription) above
     *        which the strike is launched
     * @param arm_delay_minutes do not strike before this time (lets demos
     *        and benches position the strike)
     */
    OneShotPolicy(Kilowatts load_threshold, MinuteIndex arm_delay_minutes);

    const char *name() const override { return "OneShot"; }
    AttackAction decide(const AttackObservation &obs) override;
    bool ignoresCapping() const override { return true; }
    void saveState(util::StateWriter &writer) const override;
    void loadState(util::StateReader &reader) override;

    bool fired() const { return firing_ || done_; }
    bool exhausted() const { return done_; }

  private:
    Kilowatts loadThreshold_;
    MinuteIndex armDelay_;
    bool firing_ = false;
    bool done_ = false;
};

} // namespace ecolo::core

#endif // ECOLO_CORE_POLICIES_HH
