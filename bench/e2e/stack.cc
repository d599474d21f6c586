#include "stack.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "serve/client.hh"

namespace e2e {

namespace {

constexpr int kPortWaitMs = 20000;
constexpr int kDrainWaitMs = 20000;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

Stack::Stack(std::string dir) : dir_(std::move(dir)) {}

Stack::~Stack()
{
    for (Daemon &d : daemons_) {
        if (d.pid > 0) {
            int status = 0;
            ::kill(d.pid, SIGKILL);
            reap(d, kDrainWaitMs, status);
        }
    }
}

bool
Stack::spawn(Daemon &d, const std::vector<std::string> &argv,
             std::string &error)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec. The daemon
        // dies with the benchmark, so an interrupted run leaves nothing.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        const int fd =
            ::open(d.log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    d.pid = pid;
    return true;
}

bool
Stack::waitForPort(Daemon &d, std::string &error)
{
    static const char kMarker[] = "listening on 127.0.0.1:";
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(kPortWaitMs);
    while (std::chrono::steady_clock::now() < until) {
        const std::string log = readFile(d.log);
        const std::size_t at = log.find(kMarker);
        if (at != std::string::npos) {
            d.port = static_cast<std::uint16_t>(
                std::atoi(log.c_str() + at + sizeof kMarker - 1));
            return d.port != 0;
        }
        int status = 0;
        if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
            d.pid = -1;
            error = "daemon exited before listening: " + log;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    error = "no port reported within the timeout (" + d.log + ")";
    return false;
}

bool
Stack::start(std::string &error)
{
    daemons_.assign(kWorkers + 1, Daemon{});
    for (std::size_t w = 0; w < kWorkers; ++w) {
        daemons_[w].log = dir_ + "/worker" + std::to_string(w) + ".log";
        const std::string journal = dir_ + "/journal" + std::to_string(w);
        if (!spawn(daemons_[w],
                   {E2E_SERVE_BIN, "--port", "0", "--workers", "1",
                    "--journal-dir", journal},
                   error))
            return false;
    }
    std::string list;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        if (!waitForPort(daemons_[w], error))
            return false;
        if (w > 0)
            list += ',';
        list += label(w);
    }
    Daemon &gw = daemons_[kWorkers];
    gw.log = dir_ + "/gateway.log";
    if (!spawn(gw, {E2E_GATEWAY_BIN, "--port", "0", "--workers", list},
               error))
        return false;
    return waitForPort(gw, error);
}

std::string
Stack::label(std::size_t worker) const
{
    return "127.0.0.1:" + std::to_string(daemons_.at(worker).port);
}

ProcSample
Stack::sample() const
{
    ProcSample out;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    for (const Daemon &d : daemons_) {
        if (d.pid <= 0)
            continue;
        const std::string pid = std::to_string(d.pid);
        // Fields after the parenthesized command name: state is field 3,
        // utime and stime are fields 14 and 15.
        const std::string stat = readFile("/proc/" + pid + "/stat");
        const std::size_t paren = stat.rfind(')');
        if (paren != std::string::npos) {
            std::istringstream fields(stat.substr(paren + 2));
            std::string field;
            double ticks = 0.0;
            for (int i = 3; i <= 15 && (fields >> field); ++i) {
                if (i >= 14)
                    ticks += std::atof(field.c_str());
            }
            out.cpuSeconds += ticks / tick;
        }
        const std::string status = readFile("/proc/" + pid + "/status");
        const std::size_t hwm = status.find("VmHWM:");
        if (hwm != std::string::npos)
            out.peakRssMb += std::atof(status.c_str() + hwm + 6) / 1024.0;
    }
    return out;
}

bool
Stack::workerStats(std::size_t worker, std::string &doc,
                   std::string &error) const
{
    ecolo::serve::ServeClient client(daemons_.at(worker).port);
    client.setReceiveTimeoutMs(10000);
    auto stats = client.stats();
    if (!stats) {
        error = stats.error().message;
        return false;
    }
    doc = stats.value();
    return true;
}

bool
Stack::reap(Daemon &d, int timeout_ms, int &status)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
        if (r == d.pid) {
            d.pid = -1;
            return true;
        }
        if (r < 0 && errno != EINTR) {
            d.pid = -1;
            return false;
        }
        if (std::chrono::steady_clock::now() >= until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

bool
Stack::stop(std::string &error)
{
    bool ok = true;
    const auto drain = [&](Daemon &d) {
        int status = 0;
        if (d.pid <= 0)
            return;
        if (!reap(d, kDrainWaitMs, status)) {
            ::kill(d.pid, SIGKILL);
            reap(d, kDrainWaitMs, status);
            error += d.log + ": did not drain; ";
            ok = false;
        } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            error += d.log + ": exit status " + std::to_string(status) +
                     "; ";
            ok = false;
        }
    };
    // Gateway first, so no new work reaches a draining worker.
    Daemon &gw = daemons_.back();
    if (gw.pid > 0)
        ::kill(gw.pid, SIGTERM);
    drain(gw);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        if (daemons_[w].pid > 0)
            ::kill(daemons_[w].pid, SIGTERM);
    }
    for (std::size_t w = 0; w < kWorkers; ++w)
        drain(daemons_[w]);
    return ok;
}

} // namespace e2e
