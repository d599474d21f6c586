/**
 * @file
 * The deployment under test: two `edgetherm_serve --workers 1` processes
 * behind one `edgetherm_gateway`, started from the Release tree this
 * benchmark builds. Every daemon flag other than ports, worker
 * addresses and the journal directory is left at its default, so a
 * change to a default shows up in the numbers.
 */

#ifndef E2E_STACK_HH
#define E2E_STACK_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** CPU and memory of the daemons, summed, as /proc reports them. */
struct ProcSample
{
    double cpuSeconds = 0.0; //!< utime + stime
    double peakRssMb = 0.0;  //!< VmHWM
};

class Stack
{
  public:
    static constexpr std::size_t kWorkers = 2;

    /** Logs and journals go under `dir`, which must exist. */
    explicit Stack(std::string dir);
    /** Kills (SIGKILL) and reaps whatever stop() did not. */
    ~Stack();

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Spawn the workers, then the gateway; wait for every port. */
    bool start(std::string &error);

    std::uint16_t gatewayPort() const { return daemons_.back().port; }
    /** "127.0.0.1:port", the label the gateway hashes for placement. */
    std::string label(std::size_t worker) const;

    ProcSample sample() const;

    /** One worker's edgetherm-metrics-v1 document over the STATS RPC. */
    bool workerStats(std::size_t worker, std::string &doc,
                     std::string &error) const;

    /**
     * SIGTERM the gateway, then the workers, and reap them. False when
     * any daemon fails to exit 0 within the drain timeout.
     */
    bool stop(std::string &error);

  private:
    struct Daemon
    {
        pid_t pid = -1;
        std::uint16_t port = 0;
        std::string log;
    };

    bool spawn(Daemon &d, const std::vector<std::string> &argv,
               std::string &error);
    bool waitForPort(Daemon &d, std::string &error);
    bool reap(Daemon &d, int timeout_ms, int &status);

    std::string dir_;
    /** Workers 0..kWorkers-1, then the gateway. */
    std::vector<Daemon> daemons_;
};

} // namespace e2e

#endif // E2E_STACK_HH
