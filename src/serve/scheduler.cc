#include "serve/scheduler.hh"

#include <algorithm>
#include <exception>
#include <utility>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace ecolo::serve {

void
Scheduler::LaneQueue::push(const std::string &client, Job job)
{
    auto &fifo = perClient[client];
    if (fifo.empty())
        rotation.push_back(client);
    fifo.push_back(std::move(job));
    ++size;
}

Scheduler::Job
Scheduler::LaneQueue::pop()
{
    const std::string client = rotation.front();
    rotation.pop_front();
    auto it = perClient.find(client);
    Job job = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty())
        perClient.erase(it);
    else
        rotation.push_back(client); // one job per client per turn
    --size;
    return job;
}

Scheduler::Scheduler(Options options, BatchFn executor)
    : options_([&] {
          Options o = std::move(options);
          if (o.numWorkers == 0)
              o.numWorkers = 1;
          if (o.batchBoostEvery == 0)
              o.batchBoostEvery = 1;
          if (o.batchMaxLanes == 0)
              o.batchMaxLanes = 1;
          return o;
      }()),
      executor_(std::move(executor)),
      pool_(options_.numWorkers)
{}

Scheduler::~Scheduler() { drain(false); }

Scheduler::SubmitResult
Scheduler::submit(std::uint64_t id, Lane lane,
                  const std::string &client_id, std::uint64_t batch_key,
                  std::shared_ptr<void> payload,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    const std::size_t queued = lanes_[0].size + lanes_[1].size;
    if (draining_) {
        ++stats_.rejectedDraining;
        return {Admission::Draining, queued};
    }
    if (queued >= options_.maxQueued) {
        ++stats_.rejectedQueueFull;
        return {Admission::QueueFull, queued};
    }
    Job entry;
    entry.id = id;
    entry.lane = lane;
    entry.batchKey = batch_key;
    entry.payload = std::move(payload);
    entry.deadline = deadline;
    entry.enqueued = std::chrono::steady_clock::now();
    liveTokens_.emplace(id, entry.token);
    lanes_[static_cast<int>(lane)].push(client_id, std::move(entry));
    ++stats_.admitted;
    // notify_all, not notify_one: a worker holding a batching window
    // open also waits on this condvar, and it must not swallow the
    // only wakeup meant for an idle worker (or vice versa).
    workAvailable_.notify_all();
    return {Admission::Admitted, queued + 1};
}

bool
Scheduler::cancel(std::uint64_t id, CancelReason reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = liveTokens_.find(id);
    if (it == liveTokens_.end())
        return false;
    it->second.cancel(reason);
    return true;
}

bool
Scheduler::popNextLocked(Job &out)
{
    LaneQueue &interactive = lanes_[static_cast<int>(Lane::Interactive)];
    LaneQueue &batch = lanes_[static_cast<int>(Lane::Batch)];
    if (interactive.empty() && batch.empty())
        return false;

    const bool boost_batch = !batch.empty() &&
                             (interactive.empty() ||
                              interactiveStreak_ >=
                                  options_.batchBoostEvery);
    if (boost_batch) {
        interactiveStreak_ = 0;
        out = batch.pop();
        ++stats_.dispatchedBatch;
    } else {
        ++interactiveStreak_;
        out = interactive.pop();
        ++stats_.dispatchedInteractive;
    }
    return true;
}

void
Scheduler::noteDispatchLocked(Job &job)
{
    const auto now = std::chrono::steady_clock::now();
    queueWait_[static_cast<int>(job.lane)].record(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - job.enqueued)
                .count()));
    if (job.deadline && !job.token.cancelled() && now >= *job.deadline) {
        job.token.cancel(CancelReason::Deadline);
        ++stats_.deadlineExpiredQueued;
    }
}

std::size_t
Scheduler::collectPeersLocked(std::uint64_t key, std::size_t max,
                              std::vector<Job> &out)
{
    std::size_t taken = 0;
    for (LaneQueue &lane : lanes_) {
        for (auto it = lane.perClient.begin();
             taken < max && it != lane.perClient.end();) {
            auto &fifo = it->second;
            for (auto jit = fifo.begin();
                 taken < max && jit != fifo.end();) {
                if (jit->batchKey != key) {
                    ++jit;
                    continue;
                }
                if (jit->lane == Lane::Interactive)
                    ++stats_.dispatchedInteractive;
                else
                    ++stats_.dispatchedBatch;
                noteDispatchLocked(*jit);
                out.push_back(std::move(*jit));
                jit = fifo.erase(jit);
                --lane.size;
                ++taken;
            }
            if (fifo.empty()) {
                const auto rot =
                    std::find(lane.rotation.begin(),
                              lane.rotation.end(), it->first);
                if (rot != lane.rotation.end())
                    lane.rotation.erase(rot);
                it = lane.perClient.erase(it);
            } else {
                ++it;
            }
        }
        if (taken >= max)
            break;
    }
    return taken;
}

void
Scheduler::gatherBatchLocked(const Job &seed, std::vector<Job> &peers,
                             std::unique_lock<std::mutex> &lock)
{
    const std::size_t max_peers = options_.batchMaxLanes - 1;
    collectPeersLocked(seed.batchKey, max_peers, peers);

    // Interactive seeds dispatch immediately, never holding the window.
    double waited_us = 0.0;
    if (options_.batchWindow.count() > 0 && seed.lane == Lane::Batch &&
        !draining_ && peers.size() < max_peers) {
        ++stats_.batchWindowWaits;
        const auto opened = std::chrono::steady_clock::now();
        const auto closes = opened + options_.batchWindow;
        while (peers.size() < max_peers && !draining_) {
            if (workAvailable_.wait_until(lock, closes) ==
                std::cv_status::timeout) {
                collectPeersLocked(seed.batchKey,
                                   max_peers - peers.size(), peers);
                break;
            }
            collectPeersLocked(seed.batchKey,
                               max_peers - peers.size(), peers);
        }
        waited_us = static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - opened)
                .count());
    }
    batchWindowDelay_.record(waited_us);
    batchOccupancy_.record(static_cast<double>(1 + peers.size()));
    if (peers.empty()) {
        ++stats_.batchScalarFallbacks;
    } else {
        ++stats_.batchesDispatched;
        stats_.batchedJobs += 1 + peers.size();
        stats_.batchMaxOccupancy =
            std::max(stats_.batchMaxOccupancy, 1 + peers.size());
    }
}

void
Scheduler::workerLoop()
{
    std::vector<Job> peers;
    std::vector<BatchItem> items;
    for (;;) {
        Job job;
        peers.clear();
        items.clear();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [&] {
                return draining_ || lanes_[0].size + lanes_[1].size > 0;
            });
            if (!popNextLocked(job)) {
                if (draining_)
                    return;
                continue;
            }
            noteDispatchLocked(job);
            gatherBatchLocked(job, peers, lock);
            stats_.runningNow += 1 + peers.size();
        }

        items.reserve(1 + peers.size());
        items.push_back(
            {job.id, job.lane, job.token, std::move(job.payload)});
        for (Job &peer : peers)
            items.push_back({peer.id, peer.lane, peer.token,
                             std::move(peer.payload)});
        {
            telemetry::TraceSpan span("serve.batch");
            try {
                executor_(items);
            } catch (const std::exception &e) {
                ecolo::warn("serve: batch of ", items.size(),
                            " failed with exception: ", e.what());
            } catch (...) {
                ecolo::warn("serve: batch of ", items.size(),
                            " failed with unknown exception");
            }
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.runningNow -= 1 + peers.size();
            const auto retire = [&](const Job &done) {
                if (done.token.cancelled())
                    ++stats_.cancelled;
                else
                    ++stats_.completed;
                liveTokens_.erase(done.id);
            };
            retire(job);
            for (const Job &peer : peers)
                retire(peer);
        }
        // A finished job may have been the last thing a drain was
        // waiting on; make sure idle workers re-check the exit
        // condition.
        workAvailable_.notify_all();
    }
}

void
Scheduler::run()
{
    // Each index is one persistent worker loop; parallelFor returns
    // only when every loop has observed the drain and exited.
    pool_.parallelFor(0, options_.numWorkers,
                      [this](std::size_t) { workerLoop(); });
}

void
Scheduler::drain(bool cancel_in_flight)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
        if (cancel_in_flight) {
            for (auto &[id, token] : liveTokens_)
                token.cancel(CancelReason::Drain);
        }
    }
    workAvailable_.notify_all();
}

Scheduler::Stats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    s.queuedNow = lanes_[0].size + lanes_[1].size;
    return s;
}

std::size_t
Scheduler::queuedNow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lanes_[0].size + lanes_[1].size;
}

telemetry::TailLatency::Snapshot
Scheduler::queueWaitSnapshot(Lane lane) const
{
    return queueWait_[static_cast<int>(lane)].snapshot();
}

telemetry::TailLatency::Snapshot
Scheduler::batchOccupancySnapshot() const
{
    return batchOccupancy_.snapshot();
}

telemetry::TailLatency::Snapshot
Scheduler::batchWindowDelaySnapshot() const
{
    return batchWindowDelay_.snapshot();
}

} // namespace ecolo::serve
