/**
 * @file
 * RequestJournal tests: WAL round-trips, outcome-closes-admit
 * semantics, torn-tail and corruption tolerance, compaction on open,
 * and the server-level recovery contract -- a journaled admit with no
 * outcome is replayed on the next start and fills the result cache with
 * byte-identical bytes.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/journal.hh"
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

} // namespace
} // namespace ecolo::serve
