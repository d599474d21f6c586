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
 * Appends are fdatasync'd before the server answers ACCEPTED, so an
 * admitted request is durable before the client learns about it.
 * Scanning is tolerant of a torn tail (kill -9 mid-append): the scan
 * stops at the first malformed, truncated, or checksum-failing record
 * and keeps everything before it. open() compacts the file down to the
 * still-pending ADMITs.
 */

#ifndef ECOLO_SERVE_JOURNAL_HH
#define ECOLO_SERVE_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hh"
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
    static util::Result<RequestJournal> open(const std::string &dir);

    RequestJournal(RequestJournal &&other) noexcept;
    RequestJournal(const RequestJournal &) = delete;
    RequestJournal &operator=(const RequestJournal &) = delete;
    ~RequestJournal();

    const std::vector<PendingRequest> &recovered() const
    { return recovered_; }

    /** Durably record an admission; call before answering ACCEPTED. */
    util::Result<void> recordAdmit(std::uint64_t id,
                                   const SubmitPayload &request);

    /** Record a terminal outcome (best-effort durable). */
    util::Result<void> recordOutcome(std::uint64_t id,
                                     JournalOutcome outcome);

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

    util::Result<void> append(const std::string &record);

    std::string path_;
    int fd_ = -1;
    std::vector<PendingRequest> recovered_;
    std::mutex mutex_;
};

} // namespace ecolo::serve

#endif // ECOLO_SERVE_JOURNAL_HH
