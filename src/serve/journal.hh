/**
 * @file
 * RequestJournal: a write-ahead log of admitted-but-unfinished SUBMIT
 * requests, so a killed edgetherm-serve replays in-flight work on
 * restart and reproduces the results byte-identically (the cache key is
 * content-addressed, so a replayed run fills the same cache slot the
 * retrying client will hit).
 *
 * Format: `requests.wal` inside the journal directory, a flat sequence
 * of records:
 *
 *     u32 magic     "EJL1" (0x314c4a45)
 *     u8  kind      1 = ADMIT, 2 = OUTCOME
 *     u64 requestId
 *     u32 payloadLen
 *     u8[payloadLen] payload  (ADMIT: encodeSubmit bytes;
 *                              OUTCOME: one JournalOutcome byte)
 *     u64 checksum  FNV-1a 64 over kind..payload
 *
 * Group commit: an append writes its record under the journal's mutex
 * and takes the next sequence number; the mutex is never held across
 * fdatasync. An ADMIT then waits until a sync covers its sequence:
 * one waiter leads and syncs once for every record written before its
 * sync started, the others wait for the durable sequence to pass
 * theirs. So an admitted request is durable before the server answers
 * ACCEPTED, and concurrent admissions share syncs.
 *
 * An OUTCOME does not wait. Once write() returns the record is in the
 * page cache, which survives a kill -9 of the server; the next group
 * sync, or close(), makes it durable. Only a machine crash can lose
 * it, and then the next start replays a request that already finished:
 * runs are deterministic and the result cache is content-addressed, so
 * the replay fills the same slot with the same bytes.
 *
 * A failed write or sync is sticky: every later append fails with the
 * same IoError, and nothing retries an fsync error (the kernel may have
 * dropped the dirty pages it reported).
 *
 * Scanning is tolerant of a torn tail (kill -9 mid-append): the scan
 * stops at the first malformed, truncated, or checksum-failing record
 * and keeps everything before it. open() compacts the file down to the
 * still-pending ADMITs.
 */

#ifndef ECOLO_SERVE_JOURNAL_HH
#define ECOLO_SERVE_JOURNAL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "telemetry/stats.hh"
#include "util/result.hh"

namespace ecolo::serve {

/** Terminal state recorded for a journaled request. */
enum class JournalOutcome : std::uint8_t
{
    Completed = 1,
    Cancelled = 2,
    Drained = 3, //!< checkpointed by the drain path; do not replay
    Error = 4,
    DeadlineExceeded = 5,
    Bounced = 6, //!< journaled, then refused admission (backpressure)
};

/** How a RequestJournal makes its records durable, and what it counts. */
struct JournalOptions
{
    /**
     * Syncs the journal file's data; fdatasync when empty. Same
     * contract as fdatasync: 0, or -1 with errno set. A test seam for a
     * slow, stalled or failing disk.
     */
    std::function<int(int fd)> sync;
    telemetry::Counter *records = nullptr; //!< +1 per record written
    telemetry::Counter *syncs = nullptr;   //!< +1 per sync issued
};

class RequestJournal
{
  public:
    struct PendingRequest
    {
        std::uint64_t id = 0;
        SubmitPayload request;
    };

    /**
     * Create `dir` if needed, scan any existing journal, compact it to
     * the pending ADMITs, and open for appending. recovered() holds the
     * requests that were admitted but never reached an outcome.
     */
    static util::Result<RequestJournal> open(const std::string &dir,
                                             JournalOptions options = {});

    RequestJournal(RequestJournal &&other) noexcept;
    RequestJournal(const RequestJournal &) = delete;
    RequestJournal &operator=(const RequestJournal &) = delete;
    /** Closes the file; a close() failure here is only logged. */
    ~RequestJournal();

    const std::vector<PendingRequest> &recovered() const
    { return recovered_; }

    /**
     * Record an admission and wait until a sync covers it; call before
     * answering ACCEPTED.
     */
    util::Result<void> recordAdmit(std::uint64_t id,
                                   const SubmitPayload &request);

    /**
     * Record a terminal outcome without waiting for a sync; the next
     * group sync or close() makes it durable.
     */
    util::Result<void> recordOutcome(std::uint64_t id,
                                     JournalOutcome outcome);

    /**
     * Sync every record not yet covered and close the file. Later
     * appends fail; a second close() is a no-op.
     */
    util::Result<void> close();

    const std::string &path() const { return path_; }

    /**
     * Scan a journal file, tolerating a torn tail; returns the pending
     * (admitted, outcome-less) requests in admission order. Exposed for
     * tests and offline inspection.
     */
    static util::Result<std::vector<PendingRequest>>
    scanFile(const std::string &path);

  private:
    RequestJournal() = default;

    /** Write one record; with `durable`, wait until a sync covers it. */
    util::Result<void> append(const std::string &record, bool durable);
    /** Lead one sync covering every record written so far. */
    void syncLocked(std::unique_lock<std::mutex> &lock);

    std::string path_;
    int fd_ = -1;
    std::vector<PendingRequest> recovered_;
    JournalOptions options_;

    std::mutex mutex_;
    std::condition_variable synced_;
    std::uint64_t written_ = 0; //!< records written (sequence numbers)
    std::uint64_t durable_ = 0; //!< records covered by a finished sync
    bool syncing_ = false;      //!< a leader is inside sync
    std::optional<util::Error> failed_; //!< sticky write/sync failure
};

} // namespace ecolo::serve

#endif // ECOLO_SERVE_JOURNAL_HH
