/**
 * @file
 * Scheduler tests. The suite name contains "Parallel" on purpose: the
 * thread-sanitizer CI job runs `ctest -R 'Parallel'`, so every test
 * here is exercised under TSan (admission, fairness, cancellation, and
 * drain race against worker threads).
 *
 * Determinism trick for ordering assertions: one worker plus a "gate"
 * job that holds the worker while the test enqueues; once the gate is
 * released, the dispatch order of what was queued is fully determined
 * by the scheduling policy.
 *
 * The scheduler has one executor for every dispatch. These tests give
 * it a test-local one that runs the callable stored in each job's
 * payload (a Body).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hh"
#include "stat_reader.hh"

namespace ecolo::serve {
namespace {

using namespace std::chrono_literals;

/** A test job body, stored as the job's payload. */
using Body = std::function<void(const CancelToken &)>;
using test::readStat;
using test::readTail;

/** The test executor: runs the job's Body. */
void
runBody(Scheduler::Item &item)
{
    (*static_cast<Body *>(item.payload.get()))(item.token);
}

/** Runs scheduler.run() on a joined thread; drains on destruction. */
class SchedulerHarness
{
  public:
    explicit SchedulerHarness(Scheduler::Options options)
        : scheduler_(options, runBody),
          runner_([this] { scheduler_.run(); })
    {}

    ~SchedulerHarness()
    {
        if (runner_.joinable()) {
            scheduler_.drain(true);
            runner_.join();
        }
    }

    Scheduler &operator*() { return scheduler_; }
    Scheduler *operator->() { return &scheduler_; }

    /** Submit a job that runs `body`. */
    Scheduler::SubmitResult
    submit(std::uint64_t id, Lane lane, const std::string &client,
           Body body,
           std::optional<std::chrono::steady_clock::time_point>
               deadline = std::nullopt)
    {
        return scheduler_.submit(id, lane, client,
                                 std::make_shared<Body>(std::move(body)),
                                 deadline);
    }

    void
    finish()
    {
        scheduler_.drain(false);
        runner_.join();
    }

    void
    finishCancelling()
    {
        scheduler_.drain(true);
        runner_.join();
    }

  private:
    Scheduler scheduler_;
    std::thread runner_;
};

/** Blocks the (single) worker until release() is called. */
class Gate
{
  public:
    Body
    job()
    {
        return [this](const CancelToken &) {
            std::unique_lock<std::mutex> lock(mutex_);
            entered_ = true;
            enteredCv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
        };
    }

    void
    waitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        enteredCv_.wait(lock, [this] { return entered_; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable enteredCv_;
    bool entered_ = false;
    bool released_ = false;
};

/** Thread-safe dispatch-order recorder. */
class OrderLog
{
  public:
    Body
    job(int label)
    {
        return [this, label](const CancelToken &) {
            std::lock_guard<std::mutex> lock(mutex_);
            order_.push_back(label);
        };
    }

    std::vector<int>
    order()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return order_;
    }

  private:
    std::mutex mutex_;
    std::vector<int> order_;
};

TEST(ServeSchedulerParallel, InteractiveLaneIsNeverStarvedByBatch)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 64;
    SchedulerHarness harness(options);

    Gate gate;
    OrderLog log;
    ASSERT_EQ(harness.submit(1, Lane::Batch, "warm", gate.job())
                  .admission,
              Scheduler::Admission::Admitted);
    gate.waitEntered(); // worker busy; everything below queues up

    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(harness
                      .submit(static_cast<std::uint64_t>(100 + i),
                              Lane::Batch, "bulk", log.job(100 + i))
                      .admission,
                  Scheduler::Admission::Admitted);
    }
    ASSERT_EQ(harness.submit(2, Lane::Interactive, "user", log.job(2))
                  .admission,
              Scheduler::Admission::Admitted);

    gate.release();
    harness.finish();

    // The interactive job must beat the batch backlog queued before it.
    const std::vector<int> order = log.order();
    ASSERT_EQ(order.size(), 9u);
    EXPECT_EQ(order.front(), 2);
}

TEST(ServeSchedulerParallel, BatchIsBoostedUnderInteractiveFlood)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 64;
    options.batchBoostEvery = 2;
    SchedulerHarness harness(options);

    Gate gate;
    OrderLog log;
    ASSERT_EQ(harness.submit(1, Lane::Interactive, "warm", gate.job())
                  .admission,
              Scheduler::Admission::Admitted);
    gate.waitEntered();

    for (int i = 0; i < 6; ++i)
        harness.submit(static_cast<std::uint64_t>(10 + i),
                       Lane::Interactive, "flood", log.job(10 + i));
    harness.submit(99, Lane::Batch, "bg", log.job(99));

    gate.release();
    harness.finish();

    // With batchBoostEvery=2 the batch job must not be dead last.
    const std::vector<int> order = log.order();
    ASSERT_EQ(order.size(), 7u);
    EXPECT_NE(order.back(), 99);
    const auto &stats = harness->stats();
    EXPECT_EQ(readStat(stats, "serve.dispatch.batch"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.dispatch.interactive"), 7.0);
}

TEST(ServeSchedulerParallel, ClientsAreServedRoundRobinWithinALane)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 64;
    SchedulerHarness harness(options);

    Gate gate;
    OrderLog log;
    harness.submit(1, Lane::Interactive, "warm", gate.job());
    gate.waitEntered();

    // Client "hog" dumps 4 jobs, then "late" submits one.
    for (int i = 0; i < 4; ++i)
        harness.submit(static_cast<std::uint64_t>(10 + i),
                       Lane::Interactive, "hog", log.job(10 + i));
    harness.submit(50, Lane::Interactive, "late", log.job(50));

    gate.release();
    harness.finish();

    // Round-robin: late's single job is dispatched after at most one
    // more hog job, never behind the whole backlog.
    const std::vector<int> order = log.order();
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order[1], 50);
}

TEST(ServeSchedulerParallel, AdmissionIsBoundedAndReportsQueueFull)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 2;
    SchedulerHarness harness(options);

    Gate gate;
    harness.submit(1, Lane::Interactive, "warm", gate.job());
    gate.waitEntered();

    OrderLog log;
    EXPECT_EQ(harness.submit(2, Lane::Interactive, "c", log.job(2))
                  .admission,
              Scheduler::Admission::Admitted);
    EXPECT_EQ(harness.submit(3, Lane::Batch, "c", log.job(3)).admission,
              Scheduler::Admission::Admitted);
    const auto rejected =
        harness.submit(4, Lane::Interactive, "c", log.job(4));
    EXPECT_EQ(rejected.admission, Scheduler::Admission::QueueFull);
    EXPECT_EQ(
        readStat(harness->stats(), "serve.requests.rejected_queue_full"),
        1.0);

    gate.release();
    harness.finish();
    EXPECT_EQ(log.order().size(), 2u);
}

TEST(ServeSchedulerParallel, CancelledQueuedJobStillRunsItsCompletionPath)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 8;
    SchedulerHarness harness(options);

    Gate gate;
    harness.submit(1, Lane::Interactive, "warm", gate.job());
    gate.waitEntered();

    std::atomic<bool> observed_cancel{false};
    std::atomic<bool> job_ran{false};
    harness.submit(2, Lane::Interactive, "c",
                   [&](const CancelToken &token) {
                       job_ran.store(true);
                       observed_cancel.store(token.cancelled());
                       EXPECT_EQ(token.reason(), CancelReason::Client);
                   });
    EXPECT_TRUE(harness->cancel(2, CancelReason::Client));
    EXPECT_FALSE(harness->cancel(777, CancelReason::Client));

    gate.release();
    harness.finish();

    // The cancelled job was dispatched (never leaked) and saw its token.
    EXPECT_TRUE(job_ran.load());
    EXPECT_TRUE(observed_cancel.load());
    const auto &stats = harness->stats();
    EXPECT_EQ(readStat(stats, "serve.requests.cancelled"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.queue.depth"), 0.0);
    EXPECT_EQ(readStat(stats, "serve.queue.running"), 0.0);
}

TEST(ServeSchedulerParallel, ExpiredDeadlineCancelsAtDispatch)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 8;
    SchedulerHarness harness(options);

    Gate gate;
    harness.submit(1, Lane::Interactive, "warm", gate.job());
    gate.waitEntered();

    // Queued behind the gate with an already-expired budget: the worker
    // must dispatch it with its token pre-cancelled, never skip it.
    std::atomic<bool> job_ran{false};
    std::atomic<int> observed_reason{0};
    harness.submit(2, Lane::Interactive, "d",
                   [&](const CancelToken &token) {
                       job_ran.store(true);
                       observed_reason.store(
                           static_cast<int>(token.reason()));
                   },
                   std::chrono::steady_clock::now() - 1ms);

    // A deadline comfortably in the future must not trip.
    std::atomic<bool> fresh_cancelled{true};
    harness.submit(3, Lane::Interactive, "d",
                   [&](const CancelToken &token) {
                       fresh_cancelled.store(token.cancelled());
                   },
                   std::chrono::steady_clock::now() + 1h);

    gate.release();
    harness.finish();

    EXPECT_TRUE(job_ran.load());
    EXPECT_EQ(observed_reason.load(),
              static_cast<int>(CancelReason::Deadline));
    EXPECT_FALSE(fresh_cancelled.load());
    const auto &stats = harness->stats();
    EXPECT_EQ(readStat(stats, "serve.requests.deadline_expired_queued"), 1.0);
    EXPECT_EQ(readStat(stats, "serve.requests.cancelled"), 1.0);
    // the gate job + request 3
    EXPECT_EQ(readStat(stats, "serve.requests.completed"), 2.0);
}

TEST(ServeSchedulerParallel, CancelReachesARunningJob)
{
    Scheduler::Options options;
    options.numWorkers = 2;
    SchedulerHarness harness(options);

    std::atomic<bool> done{false};
    std::atomic<std::int64_t> polls{0};
    harness.submit(1, Lane::Batch, "c",
                   [&](const CancelToken &token) {
                       while (!token.cancelled()) {
                           polls.fetch_add(1);
                           std::this_thread::sleep_for(1ms);
                       }
                       done.store(true);
                   });
    // Give the job time to start, then cancel it mid-flight.
    while (polls.load() == 0)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(harness->cancel(1, CancelReason::Client));
    harness.finish();
    EXPECT_TRUE(done.load());
}

TEST(ServeSchedulerParallel, DrainRejectsNewWorkAndCompletesQueued)
{
    Scheduler::Options options;
    options.numWorkers = 2;
    options.maxQueued = 16;
    SchedulerHarness harness(options);

    OrderLog log;
    for (int i = 0; i < 4; ++i)
        harness.submit(static_cast<std::uint64_t>(i), Lane::Batch,
                       "c" + std::to_string(i), log.job(i));
    harness->drain(false);
    const auto rejected =
        harness.submit(99, Lane::Interactive, "late", log.job(99));
    EXPECT_EQ(rejected.admission, Scheduler::Admission::Draining);
    harness.finish();
    EXPECT_EQ(log.order().size(), 4u);
    EXPECT_EQ(
        readStat(harness->stats(), "serve.requests.rejected_draining"),
        1.0);
}

TEST(ServeSchedulerParallel, DrainWithCancelFlagsInFlightWithDrainReason)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    SchedulerHarness harness(options);

    std::atomic<int> reason{-1};
    std::mutex mutex;
    std::condition_variable started_cv;
    bool started = false;
    harness.submit(1, Lane::Batch, "c",
                   [&](const CancelToken &token) {
                       {
                           std::lock_guard<std::mutex> lock(mutex);
                           started = true;
                       }
                       started_cv.notify_all();
                       while (!token.cancelled())
                           std::this_thread::sleep_for(1ms);
                       reason.store(static_cast<int>(token.reason()));
                   });
    {
        std::unique_lock<std::mutex> lock(mutex);
        started_cv.wait(lock, [&] { return started; });
    }
    harness.finishCancelling();
    EXPECT_EQ(reason.load(), static_cast<int>(CancelReason::Drain));
}

TEST(ServeSchedulerParallel, ClientOrderHoldsUnderDefaultOptions)
{
    Scheduler::Options options;
    options.numWorkers = 1; // every other field at its default
    SchedulerHarness harness(options);

    Gate gate;
    harness.submit(1, Lane::Batch, "warm", gate.job());
    gate.waitEntered();

    OrderLog log;
    for (int j = 1; j <= 3; ++j)
        harness.submit(static_cast<std::uint64_t>(10 + j), Lane::Batch,
                       "a", log.job(j));

    gate.release();
    harness.finish();
    EXPECT_EQ(log.order(), (std::vector<int>{1, 2, 3}));
}

TEST(ServeSchedulerParallel, QueueWaitIsRecordedPerLane)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 64;
    SchedulerHarness harness(options);

    Gate gate;
    harness.submit(1, Lane::Interactive, "warm", gate.job());
    gate.waitEntered();

    OrderLog log;
    harness.submit(2, Lane::Interactive, "a", log.job(2));
    harness.submit(3, Lane::Batch, "b", log.job(3));
    std::this_thread::sleep_for(5ms); // measurable queueing delay

    gate.release();
    harness.finish();

    const auto inter =
        readTail(harness->stats(), "serve.latency.interactive.queue_wait");
    const auto batch =
        readTail(harness->stats(), "serve.latency.batch.queue_wait");
    EXPECT_EQ(inter.count, 2u); // the gate job + request 2
    EXPECT_EQ(batch.count, 1u);
    EXPECT_GE(batch.max, 5000.0); // queued >= 5ms, recorded in us
}

TEST(ServeSchedulerParallel, DrainCompletesQueuedBatchableJobs)
{
    Scheduler::Options options;
    options.numWorkers = 1;
    options.maxQueued = 64;
    SchedulerHarness harness(options);

    Gate gate;
    harness.submit(1, Lane::Interactive, "warm", gate.job());
    gate.waitEntered();
    OrderLog log;
    for (int i = 0; i < 3; ++i)
        harness.submit(static_cast<std::uint64_t>(10 + i), Lane::Batch,
                       "c", log.job(i));
    // drain(false) while all three are still queued behind the gate:
    // queued batch-lane work must still run.
    harness->drain(false);
    gate.release();
    harness.finish();

    EXPECT_EQ(log.order(), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(readStat(harness->stats(), "serve.queue.depth"), 0.0);
}

TEST(ServeSchedulerParallel, ConcurrentMixedClientsAllComplete)
{
    Scheduler::Options options;
    options.numWorkers = 4;
    options.maxQueued = 256;
    SchedulerHarness harness(options);

    constexpr int kClients = 8;
    constexpr int kJobsPerClient = 16;
    std::atomic<int> completed{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        submitters.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerClient; ++j) {
                const auto id = static_cast<std::uint64_t>(
                    c * kJobsPerClient + j + 1);
                const Lane lane =
                    (c % 2 == 0) ? Lane::Interactive : Lane::Batch;
                for (;;) {
                    const auto r = harness.submit(
                        id, lane, "client-" + std::to_string(c),
                        [&](const CancelToken &) {
                            completed.fetch_add(1);
                        });
                    if (r.admission == Scheduler::Admission::Admitted)
                        break;
                    std::this_thread::sleep_for(1ms);
                }
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();
    harness.finish();

    EXPECT_EQ(completed.load(), kClients * kJobsPerClient);
    const auto &stats = harness->stats();
    EXPECT_EQ(readStat(stats, "serve.requests.completed"),
              static_cast<std::uint64_t>(kClients * kJobsPerClient));
    EXPECT_EQ(readStat(stats, "serve.queue.depth"), 0.0);
    EXPECT_EQ(readStat(stats, "serve.queue.running"), 0.0);
}

} // namespace
} // namespace ecolo::serve
