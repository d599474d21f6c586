/**
 * @file
 * Network chaos: a deterministic, seed-reproducible schedule of socket
 * faults for the serve tier, the transport-level sibling of
 * FaultSchedule.
 *
 * A ChaosSchedule is a list of rules; a ChaosInjector turns it into a
 * util::SocketFaultInjector that every TcpConnection consults once per
 * low-level send/recv chunk. Rules fire either on a fixed op period
 * (`everyOps`) or by a seeded Bernoulli draw (`probability`); both are
 * deterministic in the per-direction op sequence, so a single-threaded
 * client sees byte-identical fault placement across runs with the same
 * seed. An empty schedule builds an injector-free setup: the socket
 * paths are byte-identical no-ops.
 *
 * Scenario keys (N = 0, 1, ... consecutive):
 *
 *   chaos.seed           master RNG seed (default 1)
 *   chaos.N.kind         delay | short_op | drop | reset | truncate
 *   chaos.N.op           read | write | both (default both)
 *   chaos.N.probability  per-op Bernoulli chance in [0, 1]
 *   chaos.N.everyOps     fire every K-th eligible op (XOR probability)
 *   chaos.N.afterOps     ops to leave untouched first (default 0)
 *   chaos.N.maxTriggers  total firing budget; 0 = unlimited (default)
 *   chaos.N.delayMs      sleep length, kind=delay only (1..60000)
 *   chaos.N.maxBytes     chunk clamp, kind=short_op/truncate (default 1)
 */

#ifndef ECOLO_FAULTS_CHAOS_HH
#define ECOLO_FAULTS_CHAOS_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/keyvalue.hh"
#include "util/result.hh"
#include "util/rng.hh"
#include "util/socket.hh"

namespace ecolo::faults {

/** Transport-level fault kinds (mirror SocketFaultDecision actions). */
enum class ChaosKind : std::uint8_t
{
    Delay = 0,    //!< sleep before the chunk (slow-loris / slow peer)
    ShortOp = 1,  //!< clamp the chunk (forces partial-I/O retry loops)
    Drop = 2,     //!< close the socket silently (peer sees EOF)
    Reset = 3,    //!< abortive close (peer sees ECONNRESET)
    Truncate = 4, //!< send a prefix of the chunk, then close
};

/** Which socket direction a rule applies to. */
enum class ChaosOp : std::uint8_t
{
    Read = 0,
    Write = 1,
    Both = 2,
};

util::Result<ChaosKind> parseChaosKind(const std::string &name);
util::Result<ChaosOp> parseChaosOp(const std::string &name);

/** One chaos rule; exactly one of probability/everyOps selects firing. */
struct ChaosRule
{
    ChaosKind kind = ChaosKind::Delay;
    ChaosOp op = ChaosOp::Both;
    double probability = -1.0;    //!< < 0 when everyOps drives firing
    std::int64_t everyOps = 0;    //!< 0 when probability drives firing
    std::int64_t afterOps = 0;    //!< eligible only after this many ops
    std::int64_t maxTriggers = 0; //!< 0 = unlimited
    int delayMs = 0;
    std::size_t maxBytes = 1;

    /** Range/consistency check with a structured error. */
    util::Result<void> validated() const;
};

/** An ordered, validated set of chaos rules plus the master seed. */
class ChaosSchedule
{
  public:
    ChaosSchedule() = default;

    util::Result<void> add(ChaosRule rule);

    /**
     * Build from the `chaos.*` keys of a parsed document. Consumes only
     * chaos-prefixed keys, so it composes with scenario parsing.
     */
    static util::Result<ChaosSchedule>
    fromKeyValue(const KeyValueConfig &kv);

    bool empty() const { return rules_.empty(); }
    std::size_t size() const { return rules_.size(); }
    const std::vector<ChaosRule> &rules() const { return rules_; }
    std::uint64_t seed() const { return seed_; }
    void setSeed(std::uint64_t seed) { seed_ = seed; }

  private:
    std::vector<ChaosRule> rules_;
    std::uint64_t seed_ = 1;
};

/**
 * Parse a standalone chaos config file and reject unconsumed (typo'd)
 * keys. An absent or empty file yields an empty schedule.
 */
util::Result<ChaosSchedule> loadChaosScheduleFile(const std::string &path);

/**
 * The SocketFaultInjector driving a ChaosSchedule. Thread-safe; rules
 * are evaluated in declaration order and the first firing rule with
 * trigger budget decides the op (probability draws always advance, so
 * the per-rule random streams depend only on the op sequence).
 */
class ChaosInjector : public util::SocketFaultInjector
{
  public:
    explicit ChaosInjector(ChaosSchedule schedule);

    util::SocketFaultDecision onRead(std::size_t want) override;
    util::SocketFaultDecision onWrite(std::size_t want) override;

    struct Stats
    {
        std::uint64_t readOps = 0;
        std::uint64_t writeOps = 0;
        std::uint64_t delays = 0;
        std::uint64_t shortOps = 0;
        std::uint64_t drops = 0;
        std::uint64_t resets = 0;
        std::uint64_t truncates = 0;

        std::uint64_t
        injected() const
        {
            return delays + shortOps + drops + resets + truncates;
        }
    };

    Stats stats() const;
    const ChaosSchedule &schedule() const { return schedule_; }

  private:
    util::SocketFaultDecision decide(ChaosOp direction, std::size_t want);

    struct RuleState
    {
        Rng rng;
        std::uint64_t triggers = 0;
    };

    ChaosSchedule schedule_;
    mutable std::mutex mutex_;
    std::vector<RuleState> states_;
    std::uint64_t readOps_ = 0;
    std::uint64_t writeOps_ = 0;
    Stats stats_;
};

/**
 * Build an injector and install it process-wide (convenience for the
 * daemon/harness). An empty schedule installs nothing and returns null
 * -- the byte-identical no-op path.
 */
std::shared_ptr<ChaosInjector>
installGlobalChaosInjector(const ChaosSchedule &schedule);

} // namespace ecolo::faults

#endif // ECOLO_FAULTS_CHAOS_HH
