#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <set>
#include <thread>

#include "client.hh"
#include "core/engine.hh"
#include "gateway/cluster.hh"
#include "serve/server.hh"
#include "stack.hh"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int64_t kDay = 1440;
constexpr std::size_t kWorkers = Stack::kWorkers;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** SplitMix64 stream: the generator's own randomness, independent of
 * the engine's Rng so a change there cannot alter the traffic. */
class Prng
{
  public:
    explicit Prng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() { return mix64(state_++ * 0x2545f4914f6cdd1dULL); }
    double uniform()
    { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t state_;
};

/** A scenario seed in [1, 2^31) drawn from (seed, stream, index). */
std::uint64_t
scenarioSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return 1 + mix64(mix64(seed * 0x100000001b3ULL + stream) + index) %
                   0x7ffffffeULL;
}

/** Distinct policy parameters inside each policy's sensible range: a
 * golden-ratio sequence never repeats. */
double
paramFor(const std::string &policy, std::uint64_t j)
{
    const double u =
        std::fmod(0.5 + static_cast<double>(j) * 0.6180339887498949, 1.0);
    if (policy == "random")
        return 0.04 + 0.12 * u;
    if (policy == "foresighted")
        return 10.0 + 8.0 * u;
    return 6.8 + 1.0 * u; // myopic threshold, kW
}

const char *const kPolicies[3] = {"random", "myopic", "foresighted"};

std::string
describeError(const std::string &what, const std::string &body)
{
    return what + ": " + body.substr(0, 300);
}

} // namespace

const char *const kWorkloadNames[4] = {"cold_interactive", "sweep_batched",
                                       "long_horizon", "warm_hits"};

// ---- Specs and calls ----

std::string
RunSpec::scenario() const
{
    return "seed = " + std::to_string(scenarioSeed) + "\n";
}

std::string
RunSpec::json() const
{
    return "{\"policy\":" + jsonString(policy) +
           ",\"param\":" + jsonDouble(param) +
           ",\"horizon_minutes\":" + std::to_string(horizonMinutes) +
           ",\"scenario\":" + jsonString(scenario()) +
           ",\"priority\":\"" + (batch ? "batch" : "interactive") + "\"}";
}

ecolo::serve::SubmitPayload
RunSpec::payload() const
{
    ecolo::serve::SubmitPayload p;
    p.priority = batch ? ecolo::serve::Priority::Batch
                       : ecolo::serve::Priority::Interactive;
    p.policy = policy;
    p.param = param;
    p.paramSet = true;
    p.horizonMinutes = horizonMinutes;
    p.scenarioText = scenario();
    return p;
}

std::int64_t
maxHorizonMinutes()
{
    return ecolo::serve::ServerOptions{}.maxHorizonMinutes;
}

std::string
Call::body() const
{
    if (!fleet)
        return runs.front().json();
    std::string out = "{\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i > 0)
            out += ',';
        out += runs[i].json();
    }
    return out + "]}";
}

void
seededShuffle(std::vector<std::size_t> &v, std::uint64_t seed)
{
    Prng rng(mix64(seed ^ 0x5a3d1eULL));
    rng.shuffle(v);
}

RunSpec
setupProbe()
{
    RunSpec probe;
    probe.policy = "myopic";
    probe.param = 7.4;
    probe.horizonMinutes = kDay;
    probe.scenarioSeed = 424242;
    return probe;
}

// ---- Placement ----

Placement::Placement(const std::vector<std::string> &labels)
{
    std::string list;
    for (const std::string &l : labels) {
        if (!list.empty())
            list += ',';
        list += l;
    }
    auto addresses = ecolo::gateway::parseWorkerList(list);
    pool_ = std::make_unique<ecolo::gateway::WorkerPool>(
        addresses.ok() ? addresses.take()
                       : std::vector<ecolo::gateway::WorkerAddress>{},
        ecolo::gateway::WorkerPool::Options{});
}

Placement::~Placement() = default;

std::uint64_t
Placement::keyHash(const RunSpec &spec) const
{
    // The gateway's own validation path, so the hash is exactly the one
    // it shards on.
    ecolo::serve::SubmitPayload payload = spec.payload();
    auto prepared =
        ecolo::serve::prepareSubmitPayload(payload, maxHorizonMinutes());
    return prepared.ok() ? prepared.value().key.hash : 0;
}

std::size_t
Placement::owner(const RunSpec &spec) const
{
    if (pool_->size() == 0)
        return 0;
    return pool_->rankForKey(keyHash(spec)).front();
}

// ---- Plans ----

std::vector<RunSpec>
Plan::specs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return specs_;
}

RunSpec
Plan::record(RunSpec spec)
{
    spec.id = specs_.size();
    specs_.push_back(spec);
    return spec;
}

class Plan::Dealer
{
  public:
    Dealer(const Placement &placement,
           std::function<RunSpec(std::uint64_t)> candidate)
        : placement_(placement), candidate_(std::move(candidate))
    {}

    RunSpec next(std::size_t owner)
    {
        auto &queue = backlog_[owner % kWorkers];
        while (queue.empty()) {
            RunSpec s = candidate_(nextIndex_++);
            s.owner = placement_.owner(s);
            backlog_[s.owner % kWorkers].push_back(s);
        }
        RunSpec s = queue.front();
        queue.pop_front();
        return s;
    }

  private:
    const Placement &placement_;
    std::function<RunSpec(std::uint64_t)> candidate_;
    std::deque<RunSpec> backlog_[kWorkers];
    std::uint64_t nextIndex_ = 0;
};

namespace {

/** One short run per worker, so the timed phase starts with the shared
 * set-up artifacts (heat matrix, Prony fit, and the traces of the
 * scenario seeds `seedOf` yields) already built on both workers. */
std::vector<RunSpec>
warmupRuns(const Placement &placement,
           const std::function<std::uint64_t(std::uint64_t)> &seedOf)
{
    std::vector<RunSpec> out;
    for (std::uint64_t j = 0; out.size() < kWorkers && j < 64; ++j) {
        RunSpec s;
        s.policy = "myopic";
        s.param = 5.0 + 0.001 * static_cast<double>(j);
        s.horizonMinutes = 60;
        s.scenarioSeed = seedOf(j);
        s.owner = placement.owner(s);
        if (std::none_of(out.begin(), out.end(), [&](const RunSpec &o) {
                return o.owner == s.owner;
            }))
            out.push_back(s);
    }
    return out;
}

std::vector<Call>
singleCalls(const std::vector<RunSpec> &runs)
{
    std::vector<Call> calls;
    for (const RunSpec &r : runs) {
        Call c;
        c.runs = {r};
        calls.push_back(c);
    }
    return calls;
}

/**
 * Open loop, 2 requests/s on 4 connections: a distinct scenario seed per
 * request, policy uniform over random/myopic/foresighted, horizon
 * 60 min / 1 day / 7 days at 40/40/20 %. Every request pays cold
 * set-up; none is batchable in time.
 */
class ColdInteractive : public Plan
{
  public:
    ColdInteractive(std::uint64_t seed, double seconds,
                    const Placement &placement)
        : Plan("cold_interactive", 4, 2000.0, placement), seed_(seed)
    {
        const std::size_t n = std::max<std::size_t>(
            2, static_cast<std::size_t>(std::llround(2.0 * seconds)));
        // One Poisson realization conditioned on n arrivals (sorted
        // uniforms), its last arrival pinned near the end. It is the same
        // for every seed: queueing then depends on the code under test,
        // not on how a seed happened to cluster the arrivals. The seed
        // picks what is asked.
        Prng arrivals(0x5c4ed01eULL);
        std::vector<double> due(n);
        for (double &d : due)
            d = arrivals.uniform();
        std::sort(due.begin(), due.end());
        const double scale = seconds * (1.0 - 0.5 / static_cast<double>(n)) /
                             due.back();
        for (double &d : due)
            d *= scale;
        Prng rng(mix64(seed ^ 0xc01dULL));
        // Exact mix shares, shuffled: every seed offers the same work.
        std::vector<std::int64_t> horizons;
        const std::size_t n60 = static_cast<std::size_t>(std::llround(0.4 * n));
        const std::size_t n7d = static_cast<std::size_t>(std::llround(0.2 * n));
        for (std::size_t i = 0; i < n; ++i)
            horizons.push_back(i < n60 ? 60
                               : i < n - n7d ? kDay
                                             : 7 * kDay);
        rng.shuffle(horizons);
        std::vector<int> policies(n);
        for (std::size_t i = 0; i < n; ++i)
            policies[i] = static_cast<int>(i % 3);
        rng.shuffle(policies);

        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < n; ++i) {
            RunSpec s;
            s.policy = kPolicies[policies[i]];
            s.param = ecolo::core::defaultPolicyParam(s.policy);
            s.horizonMinutes = horizons[i];
            // Successive arrivals alternate between the two workers.
            for (std::uint64_t j = 0;; ++j) {
                s.scenarioSeed = scenarioSeed(seed, i, j);
                s.owner = placement.owner(s);
                if (s.owner == i % kWorkers || j > 64)
                    break;
            }
            Call c;
            c.runs = {record(s)};
            c.due = due[i];
            schedule_.push_back(c);
        }
    }

    bool openLoop() const override { return true; }
    std::vector<Call> schedule() override { return schedule_; }
    Call next(int) override { return {}; }

    std::vector<Call> warmup() override
    {
        // A stream the timed seeds (streams 0..n-1) never use.
        const std::uint64_t seed = seed_;
        return singleCalls(warmupRuns(placement_, [seed](std::uint64_t j) {
            return scenarioSeed(seed, 1ULL << 40, j);
        }));
    }

  private:
    std::uint64_t seed_;
    std::vector<Call> schedule_;
};

/**
 * Closed loop on one connection: POST /v1/fleet of 32 myopic 1-day runs
 * on one scenario, the threshold swept over distinct values (the
 * Fig. 12 sweep). Exercises micro-batching, warm set-up reuse, report
 * render and result-cache insertion.
 */
class SweepBatched : public Plan
{
  public:
    static constexpr std::size_t kFleet = 32;

    SweepBatched(std::uint64_t seed, const Placement &placement)
        : Plan("sweep_batched", 1, 2000.0, placement),
          base_(scenarioSeed(seed, 2, 0)),
          dealer_(placement, [this](std::uint64_t j) {
              RunSpec s;
              s.policy = "myopic";
              s.param = paramFor("myopic", j);
              s.horizonMinutes = kDay;
              s.scenarioSeed = base_;
              s.batch = true;
              return s;
          })
    {}

    std::vector<Call> warmup() override
    {
        const std::uint64_t base = base_;
        return singleCalls(warmupRuns(
            placement_, [base](std::uint64_t) { return base; }));
    }

    Call next(int) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Call c;
        c.fleet = true;
        for (std::size_t i = 0; i < kFleet; ++i)
            c.runs.push_back(record(dealer_.next(i % kWorkers)));
        return c;
    }

  private:
    std::uint64_t base_;
    Dealer dealer_;
};

/**
 * Closed loop, one connection per worker: 90-day sync runs on one
 * scenario, each connection rotating random/myopic/foresighted with
 * distinct parameters, so any stretch of the run has the same policy
 * mix. The scalar slot loop is nearly all of each request.
 */
class LongHorizon : public Plan
{
  public:
    LongHorizon(std::uint64_t seed, const Placement &placement)
        : Plan("long_horizon", 2, 1000.0, placement),
          base_(scenarioSeed(seed, 3, 0))
    {
        for (const char *policy : kPolicies) {
            dealers_.emplace_back(placement, [this, policy](std::uint64_t j) {
                RunSpec s;
                s.policy = policy;
                s.param = paramFor(s.policy, j);
                s.horizonMinutes = 90 * kDay;
                s.scenarioSeed = base_;
                return s;
            });
        }
    }

    std::vector<Call> warmup() override
    {
        const std::uint64_t base = base_;
        return singleCalls(warmupRuns(
            placement_, [base](std::uint64_t) { return base; }));
    }

    Call next(int conn) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::size_t owner = static_cast<std::size_t>(conn);
        Call c;
        c.runs = {record(dealers_[sent_[owner]++ % 3].next(owner))};
        return c;
    }

  private:
    std::uint64_t base_;
    std::deque<Dealer> dealers_; //!< one per policy
    std::size_t sent_[kWorkers] = {};
};

/**
 * Closed loop on 4 connections over a prefilled hot set of 1-day runs:
 * 99 % Zipf(1.0) reads, 1 % fresh 60-minute writes (journal, simulate,
 * cache insert). The front end is nearly all of each request.
 */
class WarmHits : public Plan
{
  public:
    WarmHits(std::uint64_t seed, double scale, const Placement &placement)
        : Plan("warm_hits", 4, 10.0, placement),
          base_(scenarioSeed(seed, 4, 0))
    {
        const std::size_t hot = std::max<std::size_t>(
            8, static_cast<std::size_t>(std::llround(1024 * scale)));
        Dealer dealer(placement, [this](std::uint64_t j) {
            RunSpec s;
            s.policy = kPolicies[j % 3];
            s.param = paramFor(s.policy, j);
            s.horizonMinutes = kDay;
            s.scenarioSeed = base_;
            return s;
        });
        double h = 0.0;
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t r = 0; r < hot; ++r) {
            // Zipf rank r lives on worker r % kWorkers.
            hot_.push_back(record(dealer.next(r % kWorkers)));
            h += 1.0 / static_cast<double>(r + 1);
            cdf_.push_back(h);
        }
        for (double &c : cdf_)
            c /= h;
        for (int c = 0; c < connections_; ++c) {
            rngs_.emplace_back(mix64(seed ^ (0x4a11ULL + c)));
            writers_.emplace_back(placement, [this, c](std::uint64_t j) {
                // Disjoint parameter bands per connection: every write
                // is a key no one has asked for.
                RunSpec s;
                s.policy = "myopic";
                s.param = 6.0 + 0.25 * c + 0.2 * (paramFor("myopic", j) - 6.8);
                s.horizonMinutes = 60;
                s.scenarioSeed = base_;
                return s;
            });
            writes_.push_back(0);
        }
    }

    std::vector<Call> warmup() override
    {
        std::vector<Call> calls;
        for (std::size_t i = 0; i < hot_.size(); i += 32) {
            Call c;
            c.fleet = true;
            for (std::size_t k = i; k < std::min(hot_.size(), i + 32); ++k) {
                RunSpec s = hot_[k];
                s.batch = true; // fill in lane-batched passes
                c.runs.push_back(s);
            }
            calls.push_back(c);
        }
        return calls;
    }

    Call next(int conn) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Prng &rng = rngs_[static_cast<std::size_t>(conn)];
        Call c;
        if (rng.uniform() < 0.01) {
            const std::size_t owner = writes_[conn]++ % kWorkers;
            c.runs = {record(writers_[conn].next(owner))};
        } else {
            const double u = rng.uniform();
            const std::size_t r = static_cast<std::size_t>(
                std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                cdf_.begin());
            c.runs = {hot_[std::min(r, hot_.size() - 1)]};
        }
        return c;
    }

  private:
    std::uint64_t base_;
    std::vector<RunSpec> hot_;
    std::vector<double> cdf_;
    std::vector<Prng> rngs_;
    std::deque<Dealer> writers_;
    std::vector<std::size_t> writes_;
};

} // namespace

std::unique_ptr<Plan>
makePlan(const std::string &name, std::uint64_t seed, double seconds,
         double scale, const Placement &placement)
{
    if (name == "cold_interactive")
        return std::make_unique<ColdInteractive>(seed, seconds, placement);
    if (name == "sweep_batched")
        return std::make_unique<SweepBatched>(seed, placement);
    if (name == "long_horizon")
        return std::make_unique<LongHorizon>(seed, placement);
    if (name == "warm_hits")
        return std::make_unique<WarmHits>(seed, scale, placement);
    return nullptr;
}

// ---- Checking answers ----

namespace {

bool
checkEnvelope(const Json &env, const RunSpec &spec,
              const std::vector<std::string> &labels, RunOutcome &out,
              std::map<std::size_t, std::string> *reports,
              std::string &error)
{
    out.id = spec.id;
    if (env.str("status") != "completed") {
        error = "run " + std::to_string(spec.id) + " not completed: " +
                env.str("status");
        return false;
    }
    const Json *report = env.get("report");
    if (report == nullptr || report->kind != Json::Kind::String ||
        report->string.empty()) {
        error = "run " + std::to_string(spec.id) + " has no report";
        return false;
    }
    const Json *hit = env.get("cache_hit");
    out.cacheHit = hit != nullptr && hit->kind == Json::Kind::Bool &&
                   hit->boolean;
    out.worker = env.str("worker");
    out.misplaced = spec.owner < labels.size() &&
                    out.worker != labels[spec.owner];
    out.reportHash = fnv1a(report->string);
    if (reports != nullptr && reports->find(spec.id) == reports->end())
        reports->emplace(spec.id, report->string);
    out.ok = true;
    return true;
}

} // namespace

bool
checkResponse(const Call &call, int status, const std::string &body,
              const std::vector<std::string> &labels,
              std::vector<RunOutcome> &runs,
              std::map<std::size_t, std::string> *reports,
              std::string &error)
{
    runs.assign(call.runs.size(), RunOutcome{});
    for (std::size_t i = 0; i < call.runs.size(); ++i)
        runs[i].id = call.runs[i].id;
    if (status != 200) {
        error = describeError("HTTP " + std::to_string(status), body);
        return false;
    }
    Json doc;
    if (!Json::parse(body, doc, error)) {
        error = describeError("unparseable response (" + error + ")", body);
        return false;
    }
    if (!call.fleet)
        return checkEnvelope(doc, call.runs.front(), labels, runs.front(),
                             reports, error);
    const Json *list = doc.get("runs");
    const double n = static_cast<double>(call.runs.size());
    if (list == nullptr || list->items.size() != call.runs.size() ||
        doc.num("count") != n || doc.num("completed") != n) {
        error = describeError("fleet incomplete", body);
        return false;
    }
    bool ok = true;
    for (std::size_t i = 0; i < call.runs.size(); ++i) {
        std::string runError;
        if (!checkEnvelope(list->items[i], call.runs[i], labels, runs[i],
                           reports, runError)) {
            ok = false;
            error = runError;
        }
    }
    return ok;
}

// ---- Driving ----

bool
runCalls(std::uint16_t port, const std::vector<Call> &calls, int connections,
         std::string &error)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::mutex errorMutex;
    const auto worker = [&] {
        HttpConnection http(port);
        for (std::size_t i = next++; i < calls.size(); i = next++) {
            const HttpReply reply =
                http.request("POST", calls[i].path(), calls[i].body());
            std::vector<RunOutcome> runs;
            std::string why = reply.error;
            if (!reply.ok ||
                !checkResponse(calls[i], reply.status, reply.body, {}, runs,
                               nullptr, why)) {
                std::lock_guard<std::mutex> lock(errorMutex);
                ok = false;
                error = why;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < connections; ++c)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    return ok;
}

DriveResult
drive(Plan &plan, std::uint16_t port, double seconds,
      const std::vector<std::string> &labels,
      const std::function<double()> &cpu, int windows)
{
    const int conns = plan.connections();
    const bool open = plan.openLoop();
    const std::vector<Call> schedule = open ? plan.schedule()
                                            : std::vector<Call>{};
    std::atomic<std::size_t> nextCall{0};
    std::vector<std::vector<CallRecord>> records(conns);
    std::vector<std::map<std::size_t, std::string>> reports(conns);
    std::vector<CpuSample> bounds;
    // Connections are opened before the clock starts.
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
    const auto since = [t0](Clock::time_point t) {
        return std::chrono::duration<double>(t - t0).count();
    };
    const auto boundary = [&] {
        bounds.push_back(CpuSample{since(Clock::now()), cpu()});
    };

    const auto worker = [&](int c) {
        HttpConnection http(port);
        (void)http.request("GET", "/v1/healthz");
        std::this_thread::sleep_until(t0);
        const bool sampler = c == 0 && !open;
        if (sampler)
            boundary();
        for (;;) {
            CallRecord rec;
            rec.conn = c;
            rec.picked = since(Clock::now());
            double from = rec.picked;
            if (open) {
                const std::size_t i = nextCall++;
                if (i >= schedule.size())
                    break;
                rec.call = schedule[i];
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(rec.call.due)));
                from = std::max(rec.call.due, rec.picked);
            } else {
                if (rec.picked >= seconds)
                    break;
                rec.call = plan.next(c);
            }
            rec.sent = since(Clock::now());
            const HttpReply reply =
                http.request("POST", rec.call.path(), rec.call.body());
            rec.done = since(Clock::now());
            if (sampler && rec.done >= seconds *
                                           static_cast<double>(bounds.size()) /
                                           windows)
                boundary();
            rec.lagMs = (rec.sent - from) * 1e3;
            rec.latencyMs =
                (rec.done - (open ? rec.call.due : rec.sent)) * 1e3;
            rec.status = reply.status;
            rec.error = reply.error;
            rec.ok = reply.ok &&
                     checkResponse(rec.call, reply.status, reply.body,
                                   labels, rec.runs, &reports[c], rec.error);
            records[c].push_back(std::move(rec));
        }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < conns; ++c)
        threads.emplace_back(worker, c);
    worker(0);
    for (std::thread &t : threads)
        t.join();

    DriveResult out;
    out.windows = std::move(bounds);
    for (int c = 0; c < conns; ++c) {
        for (CallRecord &r : records[c]) {
            out.wallSeconds = std::max(out.wallSeconds, r.done);
            if (!r.ok && out.errors.size() < 5)
                out.errors.push_back(r.error);
            out.calls.push_back(std::move(r));
        }
        for (auto &[id, bytes] : reports[c])
            out.reports.emplace(id, std::move(bytes));
    }
    std::sort(out.calls.begin(), out.calls.end(),
              [](const CallRecord &a, const CallRecord &b) {
                  return a.sent < b.sent;
              });
    // Every answer for one run must carry the same bytes.
    std::map<std::size_t, std::uint64_t> hashes;
    for (const auto &[id, bytes] : out.reports)
        hashes.emplace(id, fnv1a(bytes));
    for (const CallRecord &r : out.calls) {
        for (const RunOutcome &o : r.runs) {
            if (o.ok && hashes.at(o.id) != o.reportHash)
                ++out.inconsistent;
        }
    }
    return out;
}

} // namespace e2e
