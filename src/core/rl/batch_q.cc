#include "core/rl/batch_q.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <cmath>

#include "util/logging.hh"

namespace ecolo::core {

namespace {

double
scheduleDelta(long days, const LearnerParams &params)
{
    const double raw =
        1.0 / std::pow(static_cast<double>(std::max(days, 1L)),
                       params.learningRateExponent);
    return std::max(raw, params.minLearningRate);
}

double
scheduleEpsilon(long days, const LearnerParams &params)
{
    const double half_lives = static_cast<double>(days - 1) /
                              std::max(params.epsilonHalfLifeDays, 1e-9);
    return params.epsilon0 * std::pow(0.5, half_lives);
}

} // namespace

BatchQLearning::BatchQLearning(std::size_t num_states,
                               std::size_t num_actions,
                               const PostStateFn &post_state,
                               LearnerParams params)
    : numStates_(num_states), numActions_(num_actions), params_(params),
      post_(num_states * num_actions),
      q_(num_states * num_actions, 0.0), v_(num_states, 0.0),
      delta_(scheduleDelta(1, params)),
      epsilon_(scheduleEpsilon(1, params))
{
    ECOLO_ASSERT(num_states > 0 && num_actions > 0, "empty learner tables");
    ECOLO_ASSERT(post_state != nullptr, "post-state function required");
    ECOLO_ASSERT(params_.gamma > 0.0 && params_.gamma < 1.0,
                 "discount factor out of (0,1): ", params_.gamma);
    for (std::size_t s = 0; s < num_states; ++s) {
        for (std::size_t a = 0; a < num_actions; ++a) {
            const std::size_t post = post_state(s, static_cast<int>(a));
            ECOLO_ASSERT(post < numStates_, "post state out of range: ",
                         post);
            post_[s * num_actions + a] = post;
        }
    }
}

double
BatchQLearning::actionScore(std::size_t state, int action) const
{
    const double q = qValue(state, action); // range-checks both
    return q + params_.gamma * v_[post_[state * numActions_ + action]];
}

int
BatchQLearning::greedyAction(std::size_t state) const
{
    ECOLO_ASSERT(state < numStates_, "state out of range: ", state);
    int best = 0;
    double best_score = actionScore(state, 0);
    for (int a = 1; a < static_cast<int>(numActions_); ++a) {
        const double score = actionScore(state, a);
        if (score > best_score) {
            best_score = score;
            best = a;
        }
    }
    return best;
}

int
BatchQLearning::selectAction(std::size_t state, Rng &rng, bool explore) const
{
    if (explore && rng.bernoulli(epsilon_))
        return static_cast<int>(rng.uniformInt(numActions_));
    return greedyAction(state);
}

void
BatchQLearning::update(std::size_t state, int action, double reward,
                       std::size_t next_state)
{
    ECOLO_ASSERT(state < numStates_ && next_state < numStates_,
                 "state out of range in update");
    ECOLO_ASSERT(action >= 0 && action < static_cast<int>(numActions_),
                 "action out of range: ", action);

    // Eqn. (5): the immediate-reward table.
    double &q = q_[state * numActions_ + action];
    q = (1.0 - delta_) * q + delta_ * reward;

    // Eqn. (6): value of the *next* state under the current tables.
    double c_next = actionScore(next_state, 0);
    for (int a = 1; a < static_cast<int>(numActions_); ++a)
        c_next = std::max(c_next, actionScore(next_state, a));

    // Eqn. (7): propagate to the post state we just came through.
    double &v = v_[post_[state * numActions_ + action]];
    v = (1.0 - delta_) * v + delta_ * c_next;
}

void
BatchQLearning::advanceDay()
{
    ++days_;
    delta_ = scheduleDelta(days_, params_);
    epsilon_ = scheduleEpsilon(days_, params_);
}

double
BatchQLearning::qValue(std::size_t state, int action) const
{
    ECOLO_ASSERT(state < numStates_ &&
                 action >= 0 && action < static_cast<int>(numActions_),
                 "q table index out of range");
    return q_[state * numActions_ + action];
}

double
BatchQLearning::postValue(std::size_t post_state) const
{
    ECOLO_ASSERT(post_state < numStates_, "post state out of range");
    return v_[post_state];
}

void
BatchQLearning::setQValue(std::size_t state, int action, double value)
{
    ECOLO_ASSERT(state < numStates_ &&
                 action >= 0 && action < static_cast<int>(numActions_),
                 "q table index out of range");
    q_[state * numActions_ + action] = value;
}

void
BatchQLearning::setPostValue(std::size_t post_state, double value)
{
    ECOLO_ASSERT(post_state < numStates_, "post state out of range");
    v_[post_state] = value;
}

void
BatchQLearning::save(std::ostream &os) const
{
    os << "batchq v1 " << numStates_ << ' ' << numActions_ << ' ' << days_
       << '\n';
    os.precision(17);
    for (double q : q_)
        os << q << '\n';
    for (double v : v_)
        os << v << '\n';
}

void
BatchQLearning::load(std::istream &is)
{
    std::string tag, version;
    std::size_t states = 0, actions = 0;
    long days = 0;
    is >> tag >> version >> states >> actions >> days;
    if (!is || tag != "batchq" || version != "v1")
        ECOLO_FATAL("not a batch-Q table file");
    if (states != numStates_ || actions != numActions_) {
        ECOLO_FATAL("table dimensions mismatch: file ", states, "x",
                    actions, ", learner ", numStates_, "x", numActions_);
    }
    for (double &q : q_) {
        if (!(is >> q))
            ECOLO_FATAL("truncated batch-Q table file (Q)");
    }
    for (double &v : v_) {
        if (!(is >> v))
            ECOLO_FATAL("truncated batch-Q table file (V)");
    }
    days_ = std::max(days, 1L);
    delta_ = scheduleDelta(days_, params_);
    epsilon_ = scheduleEpsilon(days_, params_);
}

VanillaQLearning::VanillaQLearning(std::size_t num_states,
                                   std::size_t num_actions,
                                   LearnerParams params)
    : numStates_(num_states), numActions_(num_actions), params_(params),
      q_(num_states * num_actions, 0.0),
      delta_(scheduleDelta(1, params)),
      epsilon_(scheduleEpsilon(1, params))
{
    ECOLO_ASSERT(num_states > 0 && num_actions > 0, "empty learner tables");
}

int
VanillaQLearning::greedyAction(std::size_t state) const
{
    ECOLO_ASSERT(state < numStates_, "state out of range");
    int best = 0;
    double best_q = q_[state * numActions_];
    for (int a = 1; a < static_cast<int>(numActions_); ++a) {
        const double q = q_[state * numActions_ + a];
        if (q > best_q) {
            best_q = q;
            best = a;
        }
    }
    return best;
}

int
VanillaQLearning::selectAction(std::size_t state, Rng &rng,
                               bool explore) const
{
    if (explore && rng.bernoulli(epsilon_))
        return static_cast<int>(rng.uniformInt(numActions_));
    return greedyAction(state);
}

void
VanillaQLearning::update(std::size_t state, int action, double reward,
                         std::size_t next_state)
{
    ECOLO_ASSERT(state < numStates_ && next_state < numStates_,
                 "state out of range in update");
    double best_next = q_[next_state * numActions_];
    for (int a = 1; a < static_cast<int>(numActions_); ++a)
        best_next = std::max(best_next, q_[next_state * numActions_ + a]);
    double &q = q_[state * numActions_ + action];
    q = (1.0 - delta_) * q +
        delta_ * (reward + params_.gamma * best_next);
}

void
VanillaQLearning::advanceDay()
{
    ++days_;
    delta_ = scheduleDelta(days_, params_);
    epsilon_ = scheduleEpsilon(days_, params_);
}

double
VanillaQLearning::qValue(std::size_t state, int action) const
{
    ECOLO_ASSERT(state < numStates_ &&
                 action >= 0 && action < static_cast<int>(numActions_),
                 "q table index out of range");
    return q_[state * numActions_ + action];
}

} // namespace ecolo::core
