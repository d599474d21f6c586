#include "faults/chaos.hh"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>

namespace ecolo::faults {

util::Result<ChaosKind>
parseChaosKind(const std::string &name)
{
    if (name == "delay")
        return ChaosKind::Delay;
    if (name == "short_op")
        return ChaosKind::ShortOp;
    if (name == "drop")
        return ChaosKind::Drop;
    if (name == "reset")
        return ChaosKind::Reset;
    if (name == "truncate")
        return ChaosKind::Truncate;
    return ECOLO_ERROR(util::ErrorCode::ValidationError,
                       "unknown chaos kind '", name,
                       "' (want delay|short_op|drop|reset|truncate)");
}

util::Result<ChaosOp>
parseChaosOp(const std::string &name)
{
    if (name == "read")
        return ChaosOp::Read;
    if (name == "write")
        return ChaosOp::Write;
    if (name == "both")
        return ChaosOp::Both;
    return ECOLO_ERROR(util::ErrorCode::ValidationError,
                       "unknown chaos op '", name,
                       "' (want read|write|both)");
}

util::Result<void>
ChaosRule::validated() const
{
    const bool has_prob = probability >= 0.0;
    const bool has_period = everyOps > 0;
    if (has_prob == has_period) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos rule needs exactly one of probability "
                           "and everyOps");
    }
    if (has_prob && probability > 1.0) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos probability must be in [0, 1], got ",
                           probability);
    }
    if (afterOps < 0) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos afterOps must be >= 0, got ", afterOps);
    }
    if (maxTriggers < 0) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos maxTriggers must be >= 0, got ",
                           maxTriggers);
    }
    if (kind == ChaosKind::Delay && (delayMs < 1 || delayMs > 60000)) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos delayMs must be in [1, 60000], got ",
                           delayMs);
    }
    if (kind != ChaosKind::Delay && delayMs != 0) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos delayMs only applies to kind=delay");
    }
    if (maxBytes < 1) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "chaos maxBytes must be >= 1");
    }
    return {};
}

util::Result<void>
ChaosSchedule::add(ChaosRule rule)
{
    ECOLO_TRY_VOID(rule.validated());
    rules_.push_back(rule);
    return {};
}

util::Result<ChaosSchedule>
ChaosSchedule::fromKeyValue(const KeyValueConfig &kv)
{
    ChaosSchedule schedule;

    auto seed = kv.tryGetInt("chaos.seed");
    if (!seed.ok())
        return seed.error();
    if (seed.value())
        schedule.seed_ = static_cast<std::uint64_t>(*seed.value());

    for (std::size_t n = 0;; ++n) {
        const std::string prefix = "chaos." + std::to_string(n) + ".";
        const auto kind_name = kv.getString(prefix + "kind");
        if (!kind_name)
            break;

        ChaosRule rule;
        auto kind = parseChaosKind(*kind_name);
        if (!kind.ok()) {
            return ECOLO_ERROR(kind.error().code,
                               kv.locate(prefix + "kind"), ": ",
                               kind.error().message);
        }
        rule.kind = kind.value();

        if (const auto op_name = kv.getString(prefix + "op")) {
            auto op = parseChaosOp(*op_name);
            if (!op.ok()) {
                return ECOLO_ERROR(op.error().code,
                                   kv.locate(prefix + "op"), ": ",
                                   op.error().message);
            }
            rule.op = op.value();
        }

        auto probability = kv.tryGetDouble(prefix + "probability");
        if (!probability.ok())
            return probability.error();
        if (probability.value())
            rule.probability = *probability.value();

        auto every_ops = kv.tryGetInt(prefix + "everyOps");
        if (!every_ops.ok())
            return every_ops.error();
        if (every_ops.value())
            rule.everyOps = *every_ops.value();

        auto after_ops = kv.tryGetInt(prefix + "afterOps");
        if (!after_ops.ok())
            return after_ops.error();
        if (after_ops.value())
            rule.afterOps = *after_ops.value();

        auto max_triggers = kv.tryGetInt(prefix + "maxTriggers");
        if (!max_triggers.ok())
            return max_triggers.error();
        if (max_triggers.value())
            rule.maxTriggers = *max_triggers.value();

        auto delay_ms = kv.tryGetInt(prefix + "delayMs");
        if (!delay_ms.ok())
            return delay_ms.error();
        if (delay_ms.value())
            rule.delayMs = static_cast<int>(*delay_ms.value());

        auto max_bytes = kv.tryGetInt(prefix + "maxBytes");
        if (!max_bytes.ok())
            return max_bytes.error();
        if (max_bytes.value()) {
            rule.maxBytes = static_cast<std::size_t>(
                std::max(0L, *max_bytes.value()));
        }

        if (auto added = schedule.add(rule); !added.ok()) {
            return ECOLO_ERROR(added.error().code, kv.sourceName(),
                               ": chaos rule ", n, ": ",
                               added.error().message);
        }
    }

    return schedule;
}

util::Result<ChaosSchedule>
loadChaosScheduleFile(const std::string &path)
{
    auto kv = KeyValueConfig::tryParseFile(path);
    if (!kv.ok())
        return kv.error();
    auto schedule = ChaosSchedule::fromKeyValue(kv.value());
    if (!schedule.ok())
        return schedule.error();
    const auto leftover = kv.value().unconsumedKeys();
    if (!leftover.empty()) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError, path,
                           ": unknown chaos key '", *leftover.begin(),
                           "' (", leftover.size(), " unconsumed)");
    }
    return schedule;
}

// ---- ChaosInjector ----

ChaosInjector::ChaosInjector(ChaosSchedule schedule)
    : schedule_(std::move(schedule))
{
    states_.reserve(schedule_.size());
    // Fork one independent stream per rule off the master seed so rule
    // order and count are part of the deterministic identity.
    Rng master(schedule_.seed() ^ 0xc4a05c4a05ULL);
    for (std::size_t i = 0; i < schedule_.size(); ++i)
        states_.push_back(RuleState{master.fork(), 0});
}

util::SocketFaultDecision
ChaosInjector::onRead(std::size_t want)
{
    return decide(ChaosOp::Read, want);
}

util::SocketFaultDecision
ChaosInjector::onWrite(std::size_t want)
{
    return decide(ChaosOp::Write, want);
}

util::SocketFaultDecision
ChaosInjector::decide(ChaosOp direction, std::size_t want)
{
    (void)want;
    using Action = util::SocketFaultDecision::Action;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t op_index = direction == ChaosOp::Read
                                       ? ++readOps_
                                       : ++writeOps_;
    if (direction == ChaosOp::Read)
        stats_.readOps = readOps_;
    else
        stats_.writeOps = writeOps_;

    util::SocketFaultDecision decision;
    const std::vector<ChaosRule> &rules = schedule_.rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const ChaosRule &rule = rules[i];
        if (rule.op != ChaosOp::Both && rule.op != direction)
            continue;
        const std::int64_t eligible =
            static_cast<std::int64_t>(op_index) - rule.afterOps;
        if (eligible < 1)
            continue;
        bool fires = false;
        if (rule.everyOps > 0) {
            fires = eligible % rule.everyOps == 0;
        } else {
            // Always draw so the stream position depends only on the op
            // sequence, not on which rule won earlier ops.
            fires = states_[i].rng.bernoulli(rule.probability);
        }
        if (!fires || decision.action != Action::None)
            continue;
        if (rule.maxTriggers > 0 &&
            states_[i].triggers >=
                static_cast<std::uint64_t>(rule.maxTriggers)) {
            continue;
        }
        ++states_[i].triggers;
        switch (rule.kind) {
        case ChaosKind::Delay:
            decision.action = Action::Delay;
            decision.delayMs = rule.delayMs;
            ++stats_.delays;
            break;
        case ChaosKind::ShortOp:
            decision.action = Action::ShortOp;
            decision.maxBytes = rule.maxBytes;
            ++stats_.shortOps;
            break;
        case ChaosKind::Drop:
            decision.action = Action::Drop;
            ++stats_.drops;
            break;
        case ChaosKind::Reset:
            decision.action = Action::Reset;
            ++stats_.resets;
            break;
        case ChaosKind::Truncate:
            decision.action = Action::Truncate;
            decision.maxBytes = rule.maxBytes;
            ++stats_.truncates;
            break;
        }
    }
    return decision;
}

ChaosInjector::Stats
ChaosInjector::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::shared_ptr<ChaosInjector>
installGlobalChaosInjector(const ChaosSchedule &schedule)
{
    if (schedule.empty())
        return nullptr;
    auto injector = std::make_shared<ChaosInjector>(schedule);
    util::setGlobalSocketFaultInjector(injector);
    return injector;
}

} // namespace ecolo::faults
