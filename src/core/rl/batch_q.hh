/**
 * @file
 * Batch Q-learning with post-states (Section IV-B, Eqns. (3)-(7)).
 *
 * The attacker's battery transition is deterministic given its action while
 * the benign-load transition is exogenous. Factoring the value function
 * through the *post state* (battery updated, load not yet observed) lets
 * the learner share experience across all load transitions from the same
 * post state, which is what makes the paper's policy converge within weeks
 * of simulated time. Three tables are maintained:
 *
 *   Q(s, a)  state-action value          (Eqn. 5 update)
 *   V(s~)    post-state value            (Eqn. 7 update)
 *   C(s)     state value                 (Eqn. 6, derived)
 *
 * and actions are selected by argmax_a [ Q(s,a) + gamma * V(s~(s,a)) ]
 * (Eqn. 3), epsilon-greedily during learning.
 *
 * A textbook one-table Q-learner (VanillaQLearning) is included for the
 * ablation benchmark.
 */

#ifndef ECOLO_CORE_RL_BATCH_Q_HH
#define ECOLO_CORE_RL_BATCH_Q_HH

#include <cstddef>
#include <iosfwd>
#include <functional>
#include <vector>

#include "util/rng.hh"

namespace ecolo::core {

/** Maps (state, action) to the deterministic post state. The learner
 * tabulates it once at construction. */
using PostStateFn = std::function<std::size_t(std::size_t, int)>;

/** Shared learner tuning. */
struct LearnerParams
{
    double gamma = 0.99;             //!< discount factor (Table I)
    double learningRateExponent = 0.85; //!< delta(t) = 1 / t^0.85
    double epsilon0 = 0.15;          //!< initial exploration rate
    double epsilonHalfLifeDays = 10; //!< exploration decay half-life
    double minLearningRate = 0.02;   //!< floor so late days still adapt
};

/** The paper's batch (post-state) Q-learner. */
class BatchQLearning
{
  public:
    BatchQLearning(std::size_t num_states, std::size_t num_actions,
                   const PostStateFn &post_state, LearnerParams params = {});

    std::size_t numStates() const { return numStates_; }
    std::size_t numActions() const { return numActions_; }

    /**
     * Epsilon-greedy action selection by Eqn. (3). Pass explore = false
     * for pure exploitation (policy dumps, evaluation).
     */
    int selectAction(std::size_t state, Rng &rng, bool explore = true) const;

    /** Greedy action (no exploration). */
    int greedyAction(std::size_t state) const;

    /**
     * One learning step after observing the transition
     * (s_k, a_k, r_k, s_{k+1}); Eqns. (5)-(7).
     */
    void update(std::size_t state, int action, double reward,
                std::size_t next_state);

    /** Advance the learning-rate / exploration schedules by one day. */
    void advanceDay();

    double learningRate() const { return delta_; }
    double epsilon() const { return epsilon_; }
    long daysElapsed() const { return days_; }

    double qValue(std::size_t state, int action) const;
    double postValue(std::size_t post_state) const;
    /** Eqn. (3)'s action score: Q(s,a) + gamma * V(post(s,a)). */
    double actionScore(std::size_t state, int action) const;

    /** Direct table initialization (warm starts). */
    void setQValue(std::size_t state, int action, double value);
    void setPostValue(std::size_t post_state, double value);

    /**
     * Serialize / restore the learned tables and schedule position, so a
     * policy can be trained once and replayed (text format: header with
     * dimensions, then the Q and V tables).
     */
    void save(std::ostream &os) const;
    void load(std::istream &is);

  private:
    std::size_t numStates_;
    std::size_t numActions_;
    LearnerParams params_;
    std::vector<std::size_t> post_; //!< [state][action] post state
    std::vector<double> q_; //!< [state][action]
    std::vector<double> v_; //!< [post state]
    double delta_;
    double epsilon_;
    long days_ = 1;
};

/** Standard one-table Q-learning (ablation baseline). */
class VanillaQLearning
{
  public:
    VanillaQLearning(std::size_t num_states, std::size_t num_actions,
                     LearnerParams params = {});

    int selectAction(std::size_t state, Rng &rng, bool explore = true) const;
    int greedyAction(std::size_t state) const;

    void update(std::size_t state, int action, double reward,
                std::size_t next_state);

    void advanceDay();

    double qValue(std::size_t state, int action) const;
    double learningRate() const { return delta_; }

  private:
    std::size_t numStates_;
    std::size_t numActions_;
    LearnerParams params_;
    std::vector<double> q_;
    double delta_;
    double epsilon_;
    long days_ = 1;
};

} // namespace ecolo::core

#endif // ECOLO_CORE_RL_BATCH_Q_HH
