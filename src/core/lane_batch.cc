#include "core/lane_batch.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo::core {

std::size_t
LaneBatchRunner::add(Simulation &sim, MinuteIndex horizon_minutes)
{
    ECOLO_ASSERT(horizon_minutes >= 0, "negative member horizon");
    members_.push_back(Member{&sim, horizon_minutes});
    return members_.size() - 1;
}

void
LaneBatchRunner::run(MinuteIndex minutes)
{
    ECOLO_ASSERT(minutes >= 0, "negative run length");
    // Two captured words fit std::function's inline buffer, so building
    // the pool body does not allocate.
    util::parallelFor(0, members_.size(), [this, minutes](std::size_t i) {
        Member &member = members_[i];
        const MinuteIndex span = std::min(member.remaining, minutes);
        const MinuteIndex start = member.sim->now();
        member.sim->run(span);
        // Simulation::run stops short only when its cancel check fires.
        member.remaining = member.sim->now() - start < span
                               ? 0
                               : member.remaining - span;
    });
}

void
LaneBatchRunner::runAll()
{
    MinuteIndex span = 0;
    for (const Member &member : members_)
        span = std::max(span, member.remaining);
    run(span);
}

bool
LaneBatchRunner::finished() const
{
    return std::all_of(members_.begin(), members_.end(),
                       [](const Member &member) {
                           return member.remaining == 0;
                       });
}

MinuteIndex
LaneBatchRunner::remaining(std::size_t member) const
{
    ECOLO_ASSERT(member < members_.size(), "member index out of range");
    return members_[member].remaining;
}

} // namespace ecolo::core
