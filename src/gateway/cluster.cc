#include "gateway/cluster.hh"

#include <algorithm>
#include <chrono>

#include "serve/result_cache.hh" // fnv1a64
#include "util/logging.hh"

namespace ecolo::gateway {

util::Result<std::vector<WorkerAddress>>
parseWorkerList(const std::string &text)
{
    std::vector<WorkerAddress> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        std::string entry = text.substr(pos, end - pos);
        // trim blanks around each entry
        while (!entry.empty() && entry.front() == ' ')
            entry.erase(entry.begin());
        while (!entry.empty() && entry.back() == ' ')
            entry.pop_back();
        if (entry.empty())
            return ECOLO_ERROR(util::ErrorCode::ValidationError,
                               "empty worker entry in '", text, "'");

        WorkerAddress addr;
        std::size_t colon;
        if (entry[0] == '[') {
            // [v6-literal]:port
            const std::size_t close = entry.find(']');
            if (close == std::string::npos || close + 1 >= entry.size() ||
                entry[close + 1] != ':')
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "malformed IPv6 worker '", entry,
                                   "' (expected [addr]:port)");
            addr.host = entry.substr(1, close - 1);
            colon = close + 1;
        } else {
            colon = entry.rfind(':');
            if (colon == std::string::npos || colon == 0)
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "worker '", entry,
                                   "' is not host:port");
            addr.host = entry.substr(0, colon);
        }
        const std::string port_text = entry.substr(colon + 1);
        if (port_text.empty() || port_text.size() > 5)
            return ECOLO_ERROR(util::ErrorCode::ValidationError,
                               "bad port in worker '", entry, "'");
        std::uint32_t port = 0;
        for (const char c : port_text) {
            if (c < '0' || c > '9')
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "bad port in worker '", entry, "'");
            port = port * 10 + static_cast<std::uint32_t>(c - '0');
        }
        if (port == 0 || port > 65535)
            return ECOLO_ERROR(util::ErrorCode::ValidationError,
                               "port out of range in worker '", entry,
                               "'");
        addr.port = static_cast<std::uint16_t>(port);
        out.push_back(std::move(addr));

        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (out.empty())
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "worker list is empty");
    return out;
}

WorkerPool::WorkerPool(std::vector<WorkerAddress> addresses,
                       Options options)
    : options_(options)
{
    for (std::size_t i = 0; i < addresses.size(); ++i) {
        Worker &w = workers_.emplace_back(
            std::move(addresses[i]), stats_,
            "gateway.worker." + std::to_string(i) + ".");
        if (options_.receiveTimeoutMs > 0)
            w.client->setReceiveTimeoutMs(options_.receiveTimeoutMs);
        w.healthyNow.set(1.0);
    }
    stats_.gauge("gateway.workers.total")
        .set(static_cast<double>(workers_.size()));
    workersHealthy_.set(static_cast<double>(workers_.size()));
}

WorkerPool::~WorkerPool() { stop(); }

void
WorkerPool::start()
{
    if (options_.probeIntervalMs <= 0 || probeThread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(probeMutex_);
        stopping_ = false;
    }
    probeThread_ = std::thread([this] { probeLoop(); });
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(probeMutex_);
        stopping_ = true;
    }
    probeCv_.notify_all();
    if (probeThread_.joinable())
        probeThread_.join();
}

std::size_t
WorkerPool::healthyCount() const
{
    std::size_t n = 0;
    for (const Worker &w : workers_)
        if (w.healthy.load(std::memory_order_acquire))
            ++n;
    return n;
}

std::uint64_t
WorkerPool::rendezvousScore(const WorkerAddress &address,
                            std::uint64_t key_hash)
{
    // Highest-random-weight: score the (worker, key) pair. FNV alone
    // is not enough here -- worker labels share a long common prefix
    // ("127.0.0.1:747x"), and FNV's last-byte step leaves scores for
    // different workers offset by a near-constant, which skews the
    // argmax badly. The SplitMix64 finalizer on top decorrelates the
    // (worker, key) pairs properly.
    std::uint64_t x = serve::fnv1a64(address.label()) ^
                      (key_hash + 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

std::vector<std::size_t>
WorkerPool::rankForKey(std::uint64_t key_hash) const
{
    std::vector<std::size_t> order(workers_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<std::uint64_t> score(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i)
        score[i] = rendezvousScore(workers_[i].address, key_hash);
    std::sort(order.begin(), order.end(),
              [&score](std::size_t a, std::size_t b) {
                  if (score[a] != score[b])
                      return score[a] > score[b];
                  return a < b;
              });
    // Healthy-first, preserving rendezvous order inside each group:
    // the preferred *healthy* replica is tried before any dead one,
    // and a revived worker snaps back to its original rank.
    std::stable_partition(order.begin(), order.end(),
                          [this](std::size_t i) {
                              return workers_[i].healthy.load(
                                  std::memory_order_acquire);
                          });
    return order;
}

util::Result<WorkerPool::ForwardOutcome>
WorkerPool::submit(const serve::RequestSpec &spec,
                   std::uint64_t key_hash,
                   const AcceptedCallback &on_accepted,
                   const serve::ServeClient::StatusCallback &on_status)
{
    const std::vector<std::size_t> order = rankForKey(key_hash);
    ForwardOutcome result;
    util::Error last =
        ECOLO_ERROR(util::ErrorCode::IoError, "no workers configured");
    for (const std::size_t idx : order) {
        Worker &w = workers_[idx];
        w.forwarded.inc();
        std::size_t attempts = 0;
        serve::ServeClient::AcceptedCallback wrapped;
        if (on_accepted) {
            wrapped = [&on_accepted, idx](
                          std::uint64_t remote_id,
                          const serve::AcceptedPayload &payload) {
                on_accepted(idx, remote_id, payload);
            };
        }
        auto outcome = w.client->submitWithRetry(
            spec, options_.retry, &attempts, wrapped, on_status);
        result.attempts += attempts;
        if (outcome) {
            w.answered.inc();
            if (outcome.value().cacheHit)
                w.cacheHits.inc();
            if (outcome.value().status ==
                serve::OutcomeStatus::RetryLater)
                w.retryLater.inc();
            setHealthy(idx, true);
            result.outcome = outcome.take();
            result.worker = idx;
            return result;
        }
        // Transport exhausted on this worker: mark it out and walk to
        // the next replica in rendezvous order.
        w.transportErrors.inc();
        w.failoversFrom.inc();
        setHealthy(idx, false);
        ++result.failovers;
        last = outcome.error();
        debugLog("gateway: worker ", w.address.label(),
                 " unreachable (", last.message, "), failing over");
    }
    return ECOLO_ERROR(util::ErrorCode::IoError, "all ",
                       workers_.size(),
                       " workers unreachable; last error: ",
                       last.message);
}

util::Result<bool>
WorkerPool::cancel(std::size_t worker, std::uint64_t remote_id)
{
    return workers_[worker].client->cancel(remote_id);
}

util::Result<std::string>
WorkerPool::stats(std::size_t worker)
{
    return workers_[worker].client->stats();
}

void
WorkerPool::setHealthy(std::size_t worker, bool healthy)
{
    Worker &w = workers_[worker];
    // Only a real transition moves the gauges, so concurrent setters
    // leave them agreeing with the flag.
    if (w.healthy.exchange(healthy, std::memory_order_acq_rel) == healthy)
        return;
    const double delta = healthy ? 1.0 : -1.0;
    w.healthyNow.add(delta);
    workersHealthy_.add(delta);
}

void
WorkerPool::probeLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(probeMutex_);
            probeCv_.wait_for(
                lock,
                std::chrono::milliseconds(options_.probeIntervalMs),
                [this] { return stopping_; });
            if (stopping_)
                return;
        }
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            Worker &w = workers_[i];
            if (w.healthy.load(std::memory_order_acquire))
                continue;
            w.probes.inc();
            if (w.client->stats()) {
                setHealthy(i, true);
                inform("gateway: worker ", w.address.label(),
                       " is healthy again");
            } else {
                w.probeFailures.inc();
            }
        }
    }
}

} // namespace ecolo::gateway
