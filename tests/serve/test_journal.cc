/**
 * @file
 * RequestJournal tests: WAL round-trips, outcome-closes-admit
 * semantics, torn-tail and corruption tolerance, compaction on open,
 * and the server-level recovery contract -- a journaled admit with no
 * outcome is replayed on the next start and fills the result cache with
 * byte-identical bytes. The group-commit tests stall or fail the sync
 * through JournalOptions::sync: an ADMIT (and the client's ACCEPTED)
 * waits for a sync that covers it, an OUTCOME never waits, concurrent
 * admissions share syncs, and a failed sync is sticky.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "stat_reader.hh"
#include "util/sim_time.hh"

namespace ecolo::serve {
namespace {

using test::readStat;

/** A unique scratch directory under the build tree. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "journal_test_" + name;
    std::remove((dir + "/requests.wal").c_str());
    return dir;
}

SubmitPayload
sampleRequest(const std::string &client_id, std::int64_t horizon)
{
    SubmitPayload request;
    request.clientId = client_id;
    request.policy = "standby";
    request.horizonMinutes = horizon;
    return request;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

/**
 * A sync that blocks until release(): the disk of a stalled leader.
 * entered() counts the syncs that started, returned() those that
 * finished.
 */
class StalledSync
{
  public:
    int sync(int fd)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++entered_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        lock.unlock();
        const int rc = ::fdatasync(fd);
        lock.lock();
        ++returned_;
        return rc;
    }

    void release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

    /** Wait until `n` syncs have started; false after 10 s. */
    bool waitEntered(int n)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered_ >= n; });
    }

    int entered()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entered_;
    }

    int returned()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return returned_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int entered_ = 0;
    int returned_ = 0;
    bool released_ = false;
};

TEST(RequestJournal, AdmitWithoutOutcomeIsRecoveredInOrder)
{
    const std::string dir = scratchDir("pending");
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok()) << journal.error().describe();
        EXPECT_TRUE(journal.value().recovered().empty());
        ASSERT_TRUE(
            journal.value().recordAdmit(3, sampleRequest("a", 60)).ok());
        ASSERT_TRUE(
            journal.value().recordAdmit(4, sampleRequest("b", 120)).ok());
        ASSERT_TRUE(
            journal.value().recordAdmit(5, sampleRequest("c", 180)).ok());
        ASSERT_TRUE(
            journal.value()
                .recordOutcome(4, JournalOutcome::Completed)
                .ok());
    }
    auto reopened = RequestJournal::open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.error().describe();
    const auto &pending = reopened.value().recovered();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0].id, 3u);
    EXPECT_EQ(pending[0].request.clientId, "a");
    EXPECT_EQ(pending[0].request.horizonMinutes, 60);
    EXPECT_EQ(pending[1].id, 5u);
    EXPECT_EQ(pending[1].request.clientId, "c");
}

TEST(RequestJournal, EveryOutcomeKindClosesItsAdmit)
{
    const std::string dir = scratchDir("outcomes");
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok());
        const JournalOutcome outcomes[] = {
            JournalOutcome::Completed,      JournalOutcome::Cancelled,
            JournalOutcome::Drained,        JournalOutcome::Error,
            JournalOutcome::DeadlineExceeded, JournalOutcome::Bounced,
        };
        std::uint64_t id = 10;
        for (const JournalOutcome outcome : outcomes) {
            ASSERT_TRUE(
                journal.value()
                    .recordAdmit(id, sampleRequest("x", 60))
                    .ok());
            ASSERT_TRUE(journal.value().recordOutcome(id, outcome).ok());
            ++id;
        }
    }
    auto reopened = RequestJournal::open(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE(reopened.value().recovered().empty());
}

TEST(RequestJournal, TornTailIsToleratedAndEarlierRecordsSurvive)
{
    const std::string dir = scratchDir("torn");
    std::string path;
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok());
        path = journal.value().path();
        ASSERT_TRUE(
            journal.value().recordAdmit(1, sampleRequest("a", 60)).ok());
        ASSERT_TRUE(
            journal.value().recordAdmit(2, sampleRequest("b", 60)).ok());
    }
    // Tear the last record: chop off its trailing checksum bytes, the
    // signature of a kill -9 mid-append.
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    is.close();
    ASSERT_GT(bytes.size(), 5u);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() - 5));
    os.close();

    auto scanned = RequestJournal::scanFile(path);
    ASSERT_TRUE(scanned.ok()) << scanned.error().describe();
    ASSERT_EQ(scanned.value().size(), 1u);
    EXPECT_EQ(scanned.value()[0].id, 1u);

    // And open() still works (compacting away the torn tail).
    auto reopened = RequestJournal::open(dir);
    ASSERT_TRUE(reopened.ok());
    ASSERT_EQ(reopened.value().recovered().size(), 1u);
    EXPECT_EQ(reopened.value().recovered()[0].id, 1u);
}

TEST(RequestJournal, ChecksumCorruptionStopsTheScan)
{
    const std::string dir = scratchDir("corrupt");
    std::string path;
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok());
        path = journal.value().path();
        ASSERT_TRUE(
            journal.value().recordAdmit(1, sampleRequest("a", 60)).ok());
        ASSERT_TRUE(
            journal.value().recordAdmit(2, sampleRequest("b", 60)).ok());
    }
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    is.close();
    // Flip a byte in the first record's payload: its checksum fails, so
    // the scan must keep nothing (a corrupt prefix hides the suffix).
    bytes[8] ^= 0x40;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();

    auto scanned = RequestJournal::scanFile(path);
    ASSERT_TRUE(scanned.ok());
    EXPECT_TRUE(scanned.value().empty());
}

TEST(RequestJournal, CompactionShrinksTheFileOnOpen)
{
    const std::string dir = scratchDir("compact");
    std::string path;
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok());
        path = journal.value().path();
        for (std::uint64_t id = 1; id <= 20; ++id) {
            ASSERT_TRUE(
                journal.value()
                    .recordAdmit(id, sampleRequest("bulk", 60))
                    .ok());
            ASSERT_TRUE(journal.value()
                            .recordOutcome(id, JournalOutcome::Completed)
                            .ok());
        }
        ASSERT_TRUE(
            journal.value().recordAdmit(21, sampleRequest("last", 60)).ok());
    }
    std::ifstream before(path, std::ios::binary | std::ios::ate);
    const auto size_before = before.tellg();
    before.close();

    auto reopened = RequestJournal::open(dir);
    ASSERT_TRUE(reopened.ok());
    ASSERT_EQ(reopened.value().recovered().size(), 1u);
    EXPECT_EQ(reopened.value().recovered()[0].id, 21u);

    std::ifstream after(path, std::ios::binary | std::ios::ate);
    const auto size_after = after.tellg();
    EXPECT_LT(size_after, size_before);
    EXPECT_GT(size_after, 0);
}

TEST(RequestJournal, ServerReplaysPendingAdmitsIntoTheCache)
{
    const std::string dir = scratchDir("server_replay");
    const std::int64_t horizon = kMinutesPerDay;
    // Phase 1: complete a request against a journaling server and keep
    // its report as the reference.
    std::string expected;
    {
        ServerOptions options;
        options.journalDir = dir;
        Server server(options);
        ASSERT_TRUE(server.start().ok());
        ServeClient client(server.port());
        RequestSpec spec;
        spec.policy = "standby";
        spec.horizonMinutes = horizon;
        auto outcome = client.submit(spec);
        ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
        ASSERT_EQ(outcome.value().status, OutcomeStatus::Completed);
        expected = outcome.value().report;
        server.requestDrain();
        server.waitUntilStopped();
    }
    ASSERT_FALSE(expected.empty());

    // Phase 2: forge the crash -- an admit with no outcome, exactly
    // what a kill -9 between ACCEPTED and RESULT leaves behind.
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok());
        EXPECT_TRUE(journal.value().recovered().empty());
        ASSERT_TRUE(journal.value()
                        .recordAdmit(77, sampleRequest("crashed", horizon))
                        .ok());
    }

    // Phase 3: a restarted server replays the orphan; the retrying
    // client's re-submit then hits the cache byte-identically.
    {
        ServerOptions options;
        options.journalDir = dir;
        Server server(options);
        ASSERT_TRUE(server.start().ok());
        // Replay happens on scheduler workers; poll until it lands.
        for (int i = 0;
             i < 200 && readStat(server, "serve.journal.pending") > 0.0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_EQ(readStat(server, "serve.journal.recovered"), 1.0);
        EXPECT_EQ(readStat(server, "serve.journal.replayed"), 1.0);
        EXPECT_EQ(readStat(server, "serve.journal.pending"), 0.0);

        ServeClient client(server.port());
        RequestSpec spec;
        spec.policy = "standby";
        spec.horizonMinutes = horizon;
        bool cache_hit = false;
        auto outcome = client.submit(
            spec, [&cache_hit](std::uint64_t,
                               const AcceptedPayload &accepted) {
                cache_hit = accepted.cacheHit;
            });
        ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
        ASSERT_EQ(outcome.value().status, OutcomeStatus::Completed);
        EXPECT_TRUE(cache_hit);
        EXPECT_EQ(outcome.value().report, expected);
        server.requestDrain();
        server.waitUntilStopped();
    }

    // Phase 4: the replay's outcome record closes the journal entry.
    auto journal = RequestJournal::open(dir);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE(journal.value().recovered().empty());
}

TEST(RequestJournal, OneRecordsBytesArePinned)
{
    // The on-disk format must not move: an OUTCOME record for id 42
    // (magic, kind 2, id, length 1, payload Completed, FNV-1a 64 of
    // kind..payload), byte for byte.
    const std::string dir = scratchDir("pinned");
    std::string path;
    {
        auto journal = RequestJournal::open(dir);
        ASSERT_TRUE(journal.ok()) << journal.error().describe();
        path = journal.value().path();
        ASSERT_TRUE(journal.value()
                        .recordOutcome(42, JournalOutcome::Completed)
                        .ok());
        ASSERT_TRUE(journal.value().close().ok());
    }
    const unsigned char expected[] = {
        0x45, 0x4a, 0x4c, 0x31, 0x02, 0x2a, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0xdd, 0xc8,
        0x78, 0xb7, 0x5a, 0x4a, 0xc0, 0x21};
    EXPECT_EQ(readFile(path),
              std::string(reinterpret_cast<const char *>(expected),
                          sizeof(expected)));
    EXPECT_EQ(fnv1a64(std::string_view(
                  reinterpret_cast<const char *>(expected) + 4, 14)),
              0x21c04a5ab778c8ddULL);
}

TEST(RequestJournal, ConcurrentAppendsShareSyncs)
{
    // A 1 ms sync stands in for a real disk, so appenders pile up
    // behind each leader. Each thread admits its ids and closes the
    // even ones: the odd ones must scan back as pending.
    const std::string dir = scratchDir("concurrent");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 40;
    telemetry::Counter records("serve.journal.records");
    telemetry::Counter syncs("serve.journal.syncs");
    std::string path;
    {
        JournalOptions options;
        options.sync = [](int fd) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return ::fdatasync(fd);
        };
        options.records = &records;
        options.syncs = &syncs;
        auto journal = RequestJournal::open(dir, std::move(options));
        ASSERT_TRUE(journal.ok()) << journal.error().describe();
        path = journal.value().path();
        std::atomic<int> failures{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int k = 0; k < kPerThread; ++k) {
                    const std::uint64_t id =
                        static_cast<std::uint64_t>(t * kPerThread + k + 1);
                    if (!journal.value()
                             .recordAdmit(id, sampleRequest("c", 60))
                             .ok())
                        ++failures;
                    if (id % 2 == 0 &&
                        !journal.value()
                             .recordOutcome(id, JournalOutcome::Completed)
                             .ok())
                        ++failures;
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        EXPECT_EQ(failures.load(), 0);
        ASSERT_TRUE(journal.value().close().ok());
    }
    constexpr std::uint64_t kAdmits = kThreads * kPerThread;
    EXPECT_EQ(records.value(), kAdmits + kAdmits / 2);
    EXPECT_LT(syncs.value(), records.value());
    EXPECT_LT(syncs.value(), kAdmits) << "no two admissions shared a sync";

    auto scanned = RequestJournal::scanFile(path);
    ASSERT_TRUE(scanned.ok()) << scanned.error().describe();
    std::vector<bool> pending(kAdmits + 1, false);
    for (const RequestJournal::PendingRequest &p : scanned.value()) {
        ASSERT_LE(p.id, kAdmits);
        EXPECT_FALSE(pending[p.id]) << "id " << p.id << " scanned twice";
        pending[p.id] = true;
        EXPECT_EQ(p.request.clientId, "c");
    }
    for (std::uint64_t id = 1; id <= kAdmits; ++id)
        EXPECT_EQ(pending[id], id % 2 == 1) << "id " << id;
}

TEST(RequestJournal, StalledSyncHoldsAdmitsButNotOutcomes)
{
    const std::string dir = scratchDir("stalled");
    auto stall = std::make_shared<StalledSync>();
    JournalOptions options;
    options.sync = [stall](int fd) { return stall->sync(fd); };
    auto journal = RequestJournal::open(dir, std::move(options));
    ASSERT_TRUE(journal.ok()) << journal.error().describe();

    std::atomic<bool> admitted{false};
    std::thread admit([&] {
        EXPECT_TRUE(
            journal.value().recordAdmit(1, sampleRequest("a", 60)).ok());
        admitted = true;
    });
    EXPECT_TRUE(stall->waitEntered(1));
    // The leader is inside its sync, without the journal's mutex: an
    // OUTCOME writes and returns while the ADMIT still waits.
    EXPECT_TRUE(journal.value()
                    .recordOutcome(7, JournalOutcome::Completed)
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(admitted.load());
    EXPECT_EQ(stall->entered(), 1);

    stall->release();
    admit.join();
    EXPECT_TRUE(admitted.load());
    ASSERT_TRUE(journal.value().close().ok());
    // close() synced the OUTCOME that the first sync did not cover.
    EXPECT_EQ(stall->entered(), 2);
    auto scanned = RequestJournal::scanFile(journal.value().path());
    ASSERT_TRUE(scanned.ok());
    ASSERT_EQ(scanned.value().size(), 1u);
    EXPECT_EQ(scanned.value()[0].id, 1u);
}

TEST(RequestJournal, FailedSyncIsSticky)
{
    const std::string dir = scratchDir("sticky");
    auto calls = std::make_shared<std::atomic<int>>(0);
    JournalOptions options;
    options.sync = [calls](int) {
        ++*calls;
        errno = EIO;
        return -1;
    };
    auto journal = RequestJournal::open(dir, std::move(options));
    ASSERT_TRUE(journal.ok()) << journal.error().describe();

    auto first = journal.value().recordAdmit(1, sampleRequest("a", 60));
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, util::ErrorCode::IoError);
    auto outcome =
        journal.value().recordOutcome(1, JournalOutcome::Error);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, util::ErrorCode::IoError);
    auto second = journal.value().recordAdmit(2, sampleRequest("b", 60));
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, util::ErrorCode::IoError);
    EXPECT_FALSE(journal.value().close().ok());
    // One sync failed; nothing retried it.
    EXPECT_EQ(calls->load(), 1);
}

TEST(RequestJournal, StalledSyncHoldsTheClientsAccepted)
{
    // The server-level durability contract: no ACCEPTED reaches the
    // client before the sync that covers its ADMIT has returned, and
    // the run's OUTCOME is written without another sync.
    const std::string dir = scratchDir("server_stalled");
    auto stall = std::make_shared<StalledSync>();
    ServerOptions options;
    options.journalDir = dir;
    options.journalSync = [stall](int fd) { return stall->sync(fd); };
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    std::atomic<bool> accepted{false};
    std::atomic<bool> synced_before_accept{false};
    std::optional<util::Result<SubmitOutcome>> outcome;
    std::thread submitter([&] {
        ServeClient client(server.port());
        RequestSpec spec;
        spec.policy = "standby";
        spec.horizonMinutes = 60;
        outcome = client.submit(
            spec, [&](std::uint64_t, const AcceptedPayload &) {
                synced_before_accept = stall->returned() >= 1;
                accepted = true;
            });
    });
    EXPECT_TRUE(stall->waitEntered(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(accepted.load());

    stall->release();
    submitter.join();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->ok()) << outcome->error().describe();
    EXPECT_EQ(outcome->value().status, OutcomeStatus::Completed);
    EXPECT_TRUE(accepted.load());
    EXPECT_TRUE(synced_before_accept.load());
    // ADMIT and OUTCOME written (the OUTCOME lands just after RESULT),
    // one sync (the ADMIT's) so far.
    for (int i = 0;
         i < 200 && readStat(server, "serve.journal.records") < 2.0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(readStat(server, "serve.journal.records"), 2.0);
    EXPECT_EQ(readStat(server, "serve.journal.syncs"), 1.0);
    server.requestDrain();
    server.waitUntilStopped();
    // Stopping closes the journal, which syncs the OUTCOME.
    EXPECT_EQ(readStat(server, "serve.journal.syncs"), 2.0);
    EXPECT_EQ(readStat(server, "serve.journal.append_failures"), 0.0);
}

} // namespace
} // namespace ecolo::serve
