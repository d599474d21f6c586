#include "serve/journal.hh"

#include <cerrno>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/result_cache.hh"
#include "util/logging.hh"

namespace ecolo::serve {

namespace {

constexpr std::uint32_t kJournalMagic = 0x314c4a45; // "EJL1"
constexpr std::uint8_t kKindAdmit = 1;
constexpr std::uint8_t kKindOutcome = 2;
// magic + kind + requestId + payloadLen (checksum trails the payload)
constexpr std::size_t kRecordHeadBytes = 4 + 1 + 8 + 4;

void
putU32(std::string &out, std::uint32_t v)
{
    char b[4];
    std::memcpy(b, &v, 4);
    out.append(b, 4);
}

void
putU64(std::string &out, std::uint64_t v)
{
    char b[8];
    std::memcpy(b, &v, 8);
    out.append(b, 8);
}

std::string
encodeRecord(std::uint8_t kind, std::uint64_t id,
             const std::string &payload)
{
    std::string out;
    out.reserve(kRecordHeadBytes + payload.size() + 8);
    putU32(out, kJournalMagic);
    out.push_back(static_cast<char>(kind));
    putU64(out, id);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
    // Checksum covers kind..payload (everything after the magic).
    putU64(out, fnv1a64(std::string_view(out).substr(4)));
    return out;
}

util::Error
errnoError(const std::string &what, int err)
{
    return ECOLO_ERROR(util::ErrorCode::IoError, what, ": ",
                       std::strerror(err));
}

util::Result<void>
writeWholeFile(const std::string &path, const std::string &bytes)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return errnoError("cannot create " + path, errno);
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            const int err = errno;
            ::close(fd);
            return errnoError("cannot write " + path, err);
        }
        done += static_cast<std::size_t>(n);
    }
    if (::fdatasync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        return errnoError("cannot sync " + path, err);
    }
    ::close(fd);
    return {};
}

} // namespace

RequestJournal::RequestJournal(RequestJournal &&other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      recovered_(std::move(other.recovered_)),
      options_(std::move(other.options_)),
      written_(other.written_),
      durable_(other.durable_),
      failed_(std::move(other.failed_))
{}

RequestJournal::~RequestJournal()
{
    if (auto closed = close(); !closed)
        ecolo::warn("request journal ", path_, ": ",
                    closed.error().message);
}

util::Result<std::vector<RequestJournal::PendingRequest>>
RequestJournal::scanFile(const std::string &path)
{
    std::string bytes;
    {
        const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0) {
            if (errno == ENOENT)
                return std::vector<PendingRequest>{};
            return errnoError("cannot open " + path, errno);
        }
        char buf[1 << 16];
        for (;;) {
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0) {
                const int err = errno;
                ::close(fd);
                return errnoError("cannot read " + path, err);
            }
            if (n == 0)
                break;
            bytes.append(buf, static_cast<std::size_t>(n));
        }
        ::close(fd);
    }

    std::vector<PendingRequest> admits;
    std::map<std::uint64_t, std::size_t> live; // id -> index in admits
    std::size_t pos = 0;
    bool torn = false;
    while (pos + kRecordHeadBytes + 8 <= bytes.size()) {
        std::uint32_t magic, payload_len;
        std::uint64_t id;
        std::memcpy(&magic, bytes.data() + pos, 4);
        const std::uint8_t kind =
            static_cast<std::uint8_t>(bytes[pos + 4]);
        std::memcpy(&id, bytes.data() + pos + 5, 8);
        std::memcpy(&payload_len, bytes.data() + pos + 13, 4);
        if (magic != kJournalMagic ||
            payload_len > kMaxPayloadBytes ||
            pos + kRecordHeadBytes + payload_len + 8 > bytes.size()) {
            torn = true;
            break;
        }
        std::uint64_t checksum;
        std::memcpy(&checksum,
                    bytes.data() + pos + kRecordHeadBytes + payload_len,
                    8);
        if (checksum != fnv1a64(std::string_view(bytes).substr(
                            pos + 4, 1 + 8 + 4 + payload_len))) {
            torn = true;
            break;
        }
        const std::string payload =
            bytes.substr(pos + kRecordHeadBytes, payload_len);
        if (kind == kKindAdmit) {
            auto request = decodeSubmit(payload);
            if (!request.ok()) {
                torn = true;
                break;
            }
            live[id] = admits.size();
            admits.push_back(PendingRequest{id, request.take()});
        } else if (kind == kKindOutcome && payload_len == 1) {
            live.erase(id);
        } else {
            torn = true;
            break;
        }
        pos += kRecordHeadBytes + payload_len + 8;
    }
    if (torn || pos != bytes.size()) {
        ecolo::warn("request journal ", path, ": torn tail at byte ",
                    pos, " of ", bytes.size(), "; keeping ", live.size(),
                    " pending record(s) before it");
    }

    std::vector<PendingRequest> pending;
    pending.reserve(live.size());
    for (const PendingRequest &admit : admits) {
        const auto it = live.find(admit.id);
        if (it != live.end() && admits[it->second].id == admit.id &&
            &admits[it->second] == &admit) {
            pending.push_back(admit);
        }
    }
    return pending;
}

util::Result<RequestJournal>
RequestJournal::open(const std::string &dir, JournalOptions options)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        return errnoError("cannot create journal dir " + dir, errno);

    RequestJournal journal;
    journal.path_ = dir + "/requests.wal";
    journal.options_ = std::move(options);

    auto pending = scanFile(journal.path_);
    if (!pending.ok())
        return pending.error();
    journal.recovered_ = pending.take();

    // Compact: rewrite only the still-pending ADMITs, atomically.
    std::string compacted;
    for (const PendingRequest &p : journal.recovered_)
        compacted += encodeRecord(kKindAdmit, p.id,
                                  encodeSubmit(p.request));
    const std::string tmp = journal.path_ + ".tmp";
    ECOLO_TRY_VOID(writeWholeFile(tmp, compacted));
    if (::rename(tmp.c_str(), journal.path_.c_str()) != 0)
        return errnoError("cannot rename " + tmp, errno);

    journal.fd_ = ::open(journal.path_.c_str(),
                         O_WRONLY | O_APPEND | O_CLOEXEC);
    if (journal.fd_ < 0)
        return errnoError("cannot open " + journal.path_, errno);
    return journal;
}

util::Result<void>
RequestJournal::append(const std::string &record, bool durable)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (fd_ < 0) {
        return ECOLO_ERROR(util::ErrorCode::StateError,
                           "request journal is closed");
    }
    if (failed_)
        return *failed_;
    std::size_t done = 0;
    while (done < record.size()) {
        const ssize_t n =
            ::write(fd_, record.data() + done, record.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            // A partial record tears the file: the scan would stop
            // there and hide every later record, so stop appending.
            failed_ = errnoError("cannot append to " + path_, errno);
            return *failed_;
        }
        done += static_cast<std::size_t>(n);
    }
    const std::uint64_t seq = ++written_;
    if (options_.records)
        options_.records->inc();
    if (!durable)
        return {};
    while (durable_ < seq) {
        if (failed_)
            return *failed_;
        if (syncing_)
            synced_.wait(lock);
        else
            syncLocked(lock);
    }
    return {};
}

void
RequestJournal::syncLocked(std::unique_lock<std::mutex> &lock)
{
    syncing_ = true;
    const std::uint64_t covers = written_;
    const int fd = fd_;
    lock.unlock();
    const int rc = options_.sync ? options_.sync(fd) : ::fdatasync(fd);
    const int err = errno;
    lock.lock();
    syncing_ = false;
    if (options_.syncs)
        options_.syncs->inc();
    if (rc != 0)
        failed_ = errnoError("cannot sync " + path_, err);
    else
        durable_ = covers;
    synced_.notify_all();
}

util::Result<void>
RequestJournal::close()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return {};
    while (!failed_ && (syncing_ || durable_ < written_)) {
        if (syncing_)
            synced_.wait(lock);
        else
            syncLocked(lock);
    }
    ::close(fd_);
    fd_ = -1;
    if (failed_)
        return *failed_;
    return {};
}

util::Result<void>
RequestJournal::recordAdmit(std::uint64_t id,
                            const SubmitPayload &request)
{
    return append(encodeRecord(kKindAdmit, id, encodeSubmit(request)),
                  true);
}

util::Result<void>
RequestJournal::recordOutcome(std::uint64_t id, JournalOutcome outcome)
{
    std::string payload(1, static_cast<char>(outcome));
    return append(encodeRecord(kKindOutcome, id, payload), false);
}

} // namespace ecolo::serve
