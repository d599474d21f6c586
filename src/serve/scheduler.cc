#include "serve/scheduler.hh"

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

Scheduler::Scheduler(Options options, Executor executor)
    : options_([&] {
          Options o = std::move(options);
          if (o.numWorkers == 0)
              o.numWorkers = 1;
          if (o.batchBoostEvery == 0)
              o.batchBoostEvery = 1;
          return o;
      }()),
      executor_(std::move(executor)),
      pool_(options_.numWorkers)
{}

Scheduler::~Scheduler() { drain(false); }

Scheduler::SubmitResult
Scheduler::submit(std::uint64_t id, Lane lane,
                  const std::string &client_id,
                  std::shared_ptr<void> payload,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline)
{
    std::lock_guard<std::mutex> lock(mutex_);
    submitted_.inc();
    const std::size_t queued = lanes_[0].size + lanes_[1].size;
    if (draining_) {
        rejectedDraining_.inc();
        return {Admission::Draining, queued};
    }
    if (queued >= options_.maxQueued) {
        rejectedQueueFull_.inc();
        return {Admission::QueueFull, queued};
    }
    Job entry;
    entry.id = id;
    entry.lane = lane;
    entry.payload = std::move(payload);
    entry.deadline = deadline;
    entry.enqueued = std::chrono::steady_clock::now();
    liveTokens_.emplace(id, entry.token);
    lanes_[static_cast<int>(lane)].push(client_id, std::move(entry));
    admitted_.inc();
    queueDepth_.set(static_cast<double>(queued + 1));
    workAvailable_.notify_one();
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
    } else {
        ++interactiveStreak_;
        out = interactive.pop();
    }
    return true;
}

void
Scheduler::noteDispatchLocked(Job &job)
{
    const auto now = std::chrono::steady_clock::now();
    dispatched_[static_cast<int>(job.lane)]->inc();
    queueWait_[static_cast<int>(job.lane)]->record(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - job.enqueued)
                .count()));
    if (job.deadline && !job.token.cancelled() && now >= *job.deadline) {
        job.token.cancel(CancelReason::Deadline);
        deadlineExpiredQueued_.inc();
    }
}

void
Scheduler::workerLoop()
{
    for (;;) {
        Job job;
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
            queueDepth_.set(
                static_cast<double>(lanes_[0].size + lanes_[1].size));
            running_.add(1.0);
        }

        Item item{job.id, job.lane, job.token, std::move(job.payload)};
        {
            telemetry::TraceSpan span("serve.job");
            try {
                executor_(item);
            } catch (const std::exception &e) {
                ecolo::warn("serve: job ", job.id,
                            " failed with exception: ", e.what());
            } catch (...) {
                ecolo::warn("serve: job ", job.id,
                            " failed with unknown exception");
            }
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            running_.add(-1.0);
            if (job.token.cancelled())
                cancelled_.inc();
            else
                completed_.inc();
            liveTokens_.erase(job.id);
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

} // namespace ecolo::serve
