/**
 * @file
 * Microbenchmarks for the performance-critical kernels: the dense vs.
 * streaming thermal kernel (the per-minute hot path of every
 * campaign), the cold set-up of one simulation, serial vs. thread-pool
 * fleet simulation, and serial vs. parallel CFD matrix extraction. Run
 * with --benchmark_format=json (or
 * --benchmark_out=...) to emit the machine-readable perf trajectory.
 *
 * Independently of google-benchmark's own (version-dependent) JSON, the
 * binary always writes a *stable*-schema summary -- see
 * docs/observability.md#bench-perf-json -- to BENCH_perf.json (or
 * $EDGETHERM_BENCH_JSON when set), which CI archives so perf trajectories
 * can be compared across commits without parsing the console output.
 */

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common.hh"
#include "core/fleet.hh"
#include "core/setup_cache.hh"
#include "power/layout.hh"
#include "telemetry/events.hh" // jsonEscape
#include "telemetry/telemetry.hh"
#include "thermal/factorization.hh"
#include "thermal/heat_matrix.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace {

using namespace ecolo;
using namespace ecolo::thermal;

power::DataCenterLayout
layoutWithServers(std::size_t num_servers)
{
    power::DataCenterLayout::Params params;
    params.numRacks = num_servers / 20;
    params.serversPerRack = 20;
    return power::DataCenterLayout(params);
}

/** A deterministic, mildly varying power history to convolve. */
void
fillHistory(MatrixThermalModel &model, std::size_t num_servers,
            std::size_t horizon)
{
    std::vector<Kilowatts> powers(num_servers);
    for (std::size_t m = 0; m < horizon; ++m) {
        for (std::size_t j = 0; j < num_servers; ++j) {
            powers[j] = Kilowatts(
                0.10 + 0.01 * static_cast<double>((j + m) % 7));
        }
        model.pushPowers(powers);
    }
}

// ---- Dense reference convolution (paper default N=40, H=10). ----

void
BM_ThermalRisesDense(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t horizon = 10;
    MatrixThermalModel model(
        HeatDistributionMatrix::analyticDefault(
            layoutWithServers(n), HeatDistributionMatrix::AnalyticParams(),
            horizon),
        KernelMode::Dense);
    fillHistory(model, n, horizon);
    std::vector<double> rises;
    for (auto _ : state) {
        model.computeAllRises(rises);
        benchmark::DoNotOptimize(rises.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalRisesDense)->Arg(40)->Arg(80)->Arg(160);

// ---- Year-long slot loop: the acceptance metric of the streaming ----
// ---- kernel (push + computeAllRises per slot, N=40, H=10).        ----

/**
 * The engine's per-slot usage pattern over a deterministic "year": each
 * benchmark iteration replays one day (1440 slots) of a pseudo-random
 * schedule, so a normal run covers hundreds of simulated days and the
 * counters yield a stable ns/slot. The `slots_per_iter` counter is what
 * writePerfJson divides real_time_ns by to derive the `ns_per_slot`
 * metric that tools/bench_compare.py gates regressions on.
 */
void
benchYearSlotLoop(benchmark::State &state, KernelMode mode)
{
    constexpr std::size_t kSlotsPerDay = 1440;
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t horizon = 10;
    MatrixThermalModel model(
        HeatDistributionMatrix::analyticDefault(
            layoutWithServers(n), HeatDistributionMatrix::AnalyticParams(),
            horizon),
        mode);

    // One precomputed day of mostly-idle-with-bursts power vectors.
    std::vector<std::vector<Kilowatts>> day(
        kSlotsPerDay, std::vector<Kilowatts>(n));
    std::uint64_t lcg = 0x853c49e6748fea9bULL;
    for (auto &powers : day) {
        for (auto &p : powers) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            const double u = static_cast<double>(lcg >> 11) * 0x1.0p-53;
            p = Kilowatts(u > 0.9 ? 0.45 + 0.3 * u : 0.05 + 0.25 * u);
        }
    }

    std::vector<double> rises;
    for (auto _ : state) {
        for (const auto &powers : day) {
            model.pushPowers(powers);
            model.computeAllRises(rises);
            benchmark::DoNotOptimize(rises.data());
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlotsPerDay));
    state.counters["slots_per_iter"] =
        static_cast<double>(kSlotsPerDay);
    // One model: aggregate == plain, reported so this benchmark
    // can anchor --normalize-by for the ns_per_slot_aggregate gate too.
    state.counters["aggregate_slots_per_iter"] =
        static_cast<double>(kSlotsPerDay);
    state.SetLabel(std::string("kernel=") +
                   kernelModeName(model.activeKernel()) +
                   " rank=" + std::to_string(model.factorizationRank()));
}

void
BM_YearSlotLoopDense(benchmark::State &state)
{
    benchYearSlotLoop(state, KernelMode::Dense);
}
BENCHMARK(BM_YearSlotLoopDense)->Arg(40)->Unit(benchmark::kMillisecond);

void
BM_YearSlotLoopStreaming(benchmark::State &state)
{
    // Auto resolves to streaming on the analytic matrix; the
    // kernel=streaming label records it.
    benchYearSlotLoop(state, KernelMode::Auto);
}
BENCHMARK(BM_YearSlotLoopStreaming)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

// ---- End-to-end campaign: dense vs. streaming engine hot path. ----

/** A process-registry counter's value; 0 before it is registered. */
double
counterValue(const std::string &name)
{
    const double v = telemetry::statValue(telemetry::registry().find(name));
    return std::isnan(v) ? 0.0 : v;
}

/** Builds the attack policy a campaign benchmark runs. */
using PolicyFactory = std::function<std::unique_ptr<core::AttackPolicy>(
    const core::SimulationConfig &)>;

/**
 * Where a slot's time goes: one more run, outside the timed loop, with
 * telemetry on, which times every slot phase. Each phase_<name>_ns row
 * is that run's mean per slot, read from the engine.phase.* counters it
 * published. The rows partition the phased loop,
 * phased_loop_ns_per_slot, and the run fails when they sum to more
 * than 5 % away from it. The phased loop exceeds loop_ns_per_slot by
 * the clock's reads, one per phase, which each row carries once.
 */
void
reportSlotPhases(benchmark::State &state,
                 const core::SimulationConfig &config, double days,
                 const PolicyFactory &make_policy)
{
    if (!telemetry::kCompiledIn)
        return;
    core::Simulation sim(config, make_policy(config));
    std::vector<std::string> names;
    for (std::size_t p = 0; p < core::kNumSlotPhases; ++p)
        names.push_back(core::slotPhaseName(static_cast<core::SlotPhase>(p)));
    std::vector<double> before;
    for (const std::string &name : names)
        before.push_back(counterValue("engine.phase." + name + "_ns"));
    const double slots_before = counterValue("engine.phase.slots");

    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    sim.runDays(days);
    const auto t1 = std::chrono::steady_clock::now();
    telemetry::setEnabled(was_enabled);

    const double slots = counterValue("engine.phase.slots") - slots_before;
    double sum_ns = 0.0;
    for (std::size_t p = 0; p < names.size(); ++p) {
        const double ns =
            (counterValue("engine.phase." + names[p] + "_ns") - before[p]) /
            slots;
        state.counters["phase_" + names[p] + "_ns"] = ns;
        sum_ns += ns;
    }
    const double loop_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / slots;
    state.counters["phased_loop_ns_per_slot"] = loop_ns;
    state.counters["phase_sum_ns"] = sum_ns;
    if (std::abs(sum_ns / loop_ns - 1.0) > 0.05)
        state.SkipWithError("slot phases do not sum to the loop time");
}

/**
 * Set-up (trace synthesis, scale bisection, matrix + factorization, or
 * cache hits on a warm SetupCache) vs. slot loop, reported separately:
 * the split is what the SetupCache sharing in runCampaigns attacks, and
 * watching both counters keeps a set-up regression from hiding inside
 * an overall time dominated by the loop (or vice versa).
 */
void
timeCampaign(benchmark::State &state, const core::SimulationConfig &config,
             double days, const PolicyFactory &make_policy)
{
    std::chrono::steady_clock::duration setup_time{};
    std::chrono::steady_clock::duration loop_time{};
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        core::Simulation sim(config, make_policy(config));
        const auto t1 = std::chrono::steady_clock::now();
        sim.runDays(days);
        const auto t2 = std::chrono::steady_clock::now();
        setup_time += t1 - t0;
        loop_time += t2 - t1;
        benchmark::DoNotOptimize(sim.metrics().emergencies());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(days * 24 * 60));
    state.counters["slots_per_iter"] = days * 24 * 60;
    const auto iters = static_cast<double>(
        state.iterations() > 0 ? state.iterations() : 1);
    state.counters["setup_ns_per_iter"] =
        std::chrono::duration<double, std::nano>(setup_time).count() /
        iters;
    state.counters["loop_ns_per_slot"] =
        std::chrono::duration<double, std::nano>(loop_time).count() /
        (iters * days * 24 * 60);
    reportSlotPhases(state, config, days, make_policy);
}

void
benchCampaign(benchmark::State &state, KernelMode mode)
{
    auto config = core::SimulationConfig::paperDefault();
    config.thermalMode = mode;
    timeCampaign(state, config, 2.0, [](const core::SimulationConfig &c) {
        return std::unique_ptr<core::AttackPolicy>(
            core::makeForesightedPolicy(c, 14.0));
    });
}

void
BM_CampaignDense(benchmark::State &state)
{
    benchCampaign(state, KernelMode::Dense);
}
BENCHMARK(BM_CampaignDense)->Unit(benchmark::kMillisecond);

void
BM_CampaignStreaming(benchmark::State &state)
{
    benchCampaign(state, KernelMode::Auto);
}
BENCHMARK(BM_CampaignStreaming)->Unit(benchmark::kMillisecond);

/**
 * One member of a served Fig. 12 fleet: a 1-day myopic run at the
 * default threshold on a warm SetupCache, so set-up is cache hits and
 * the slot loop is most of each iteration. Not in the perf baseline or
 * the CI gate's filter.
 */
void
BM_CampaignMyopic(benchmark::State &state)
{
    auto config = core::SimulationConfig::paperDefault();
    config.setupCache = std::make_shared<core::SetupCache>();
    const Kilowatts threshold(core::defaultPolicyParam("myopic"));
    const PolicyFactory make_policy =
        [threshold](const core::SimulationConfig &c) {
            return core::makeMyopicPolicy(c, threshold);
        };
    {
        core::Simulation warm(config, make_policy(config)); // fills it
    }
    timeCampaign(state, config, 1.0, make_policy);
}
BENCHMARK(BM_CampaignMyopic)->Unit(benchmark::kMillisecond);

// ---- Cold set-up: one default Simulation on a fresh SetupCache. ----
// Every iteration generates the year-long traces and runs the scale
// solve, heat matrix and factorization from scratch: the fixed cost of
// a new scenario. A trajectory row; the baseline does not carry it.

void
BM_ColdSetup(benchmark::State &state)
{
    auto config = core::SimulationConfig::paperDefault();
    for (auto _ : state) {
        config.setupCache = std::make_shared<core::SetupCache>();
        core::Simulation sim(config, core::makeRandomPolicy(config, 0.0));
        benchmark::DoNotOptimize(sim.now());
    }
}
BENCHMARK(BM_ColdSetup)->Unit(benchmark::kMillisecond);

// A served cold request's set-up: the heat matrix and its factorization
// are already in the worker's cache, and every iteration is a new seed,
// so it pays the traces and the scale solve. Run with a one-thread pool
// (threads:1) and the default pool (threads:0), so the serial and the
// pool cost sit side by side. A trajectory row; the baseline does not
// carry it.

void
BM_ColdSetupServed(benchmark::State &state)
{
    const std::size_t threads =
        state.range(0) > 0 ? static_cast<std::size_t>(state.range(0))
                           : util::ThreadPool::defaultThreads();
    util::ThreadPool::setGlobalThreads(threads);
    auto config = core::SimulationConfig::paperDefault();
    const power::DataCenterLayout layout(config.layout);
    const auto matrix = HeatDistributionMatrix::analyticDefault(
        layout, config.matrixParams, config.matrixHorizonMinutes);
    config.setupCache = std::make_shared<core::SetupCache>();
    config.setupCache->matrix(core::SetupCache::matrixKey(config),
                              [&] { return matrix; });
    config.setupCache->factorization(
        core::SetupCache::factorizationKey(config), [&] {
            return TemporalFactorization::compute(matrix,
                                                  config.factorization);
        });
    for (auto _ : state) {
        ++config.seed;
        core::Simulation sim(config, core::makeRandomPolicy(config, 0.0));
        benchmark::DoNotOptimize(sim.now());
    }
    state.counters["pool_threads"] = static_cast<double>(threads);
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}
BENCHMARK(BM_ColdSetupServed)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// ---- Campaign sweep with and without a shared SetupCache. ----
// The CI perf gate filters on the BM_LaneBatch* row names and the
// committed baseline keys on them, so they stay as they are.

/**
 * A sensitivity-sweep shaped batch: one seed (so members share traces
 * and scale factor), myopic thresholds x battery capacities. Both legs
 * run every member with Simulation::run on the pool, pinned to two
 * threads so the ratio between them is a property of set-up sharing
 * rather than of however many cores the measuring machine has.
 */
std::vector<benchutil::CampaignSpec>
sweepSpecs(std::size_t members, double days)
{
    const auto base = core::SimulationConfig::paperDefault();
    std::vector<benchutil::CampaignSpec> specs;
    specs.reserve(members);
    for (std::size_t k = 0; k < members; ++k) {
        benchutil::CampaignSpec spec;
        spec.config = base;
        spec.config.batterySpec.capacity =
            KilowattHours(0.2 + 0.05 * static_cast<double>(k / 8));
        const double threshold =
            6.8 + 0.1 * static_cast<double>(k % 8);
        spec.makePolicy =
            [threshold](const core::SimulationConfig &config) {
                return core::makeMyopicPolicy(config,
                                              Kilowatts(threshold));
            };
        spec.days = days;
        spec.label = "sweep";
        spec.parameter = threshold;
        specs.push_back(std::move(spec));
    }
    return specs;
}

void
benchSweep(benchmark::State &state, bool shared_setup)
{
    util::ThreadPool::setGlobalThreads(2);
    constexpr std::size_t kMembers = 16;
    constexpr double kDays = 2.0;
    const auto specs = sweepSpecs(kMembers, kDays);
    for (auto _ : state) {
        auto results = shared_setup
                           ? benchutil::runCampaigns(specs)
                           : benchutil::runCampaignsPerThread(specs);
        benchmark::DoNotOptimize(results.data());
    }
    const double aggregate_slots =
        kDays * 24 * 60 * static_cast<double>(kMembers);
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(aggregate_slots));
    // Both counters carry the same value: slots_per_iter feeds the
    // existing ns_per_slot gate, aggregate_slots_per_iter the
    // ns_per_slot_aggregate one (sweep cost is inherently aggregate).
    state.counters["slots_per_iter"] = aggregate_slots;
    state.counters["aggregate_slots_per_iter"] = aggregate_slots;
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}

void
BM_LaneBatchSweepPerThread(benchmark::State &state)
{
    benchSweep(state, /*shared_setup=*/false);
}
BENCHMARK(BM_LaneBatchSweepPerThread)->Unit(benchmark::kMillisecond);

void
BM_LaneBatchSweep(benchmark::State &state)
{
    benchSweep(state, /*shared_setup=*/true);
}
BENCHMARK(BM_LaneBatchSweep)->Unit(benchmark::kMillisecond);

/** A warm 16-site fleet advanced in 30-minute chunks on two threads:
 * the per-chunk cost of FleetSimulation::run's pool fan-out. */
void
BM_LaneBatchFleet(benchmark::State &state)
{
    util::ThreadPool::setGlobalThreads(2);
    constexpr std::size_t kSites = 16;
    constexpr MinuteIndex kChunk = 30;
    auto config = core::SimulationConfig::paperDefault();
    config.attackLoad = Kilowatts(3.0);
    config.batterySpec.maxDischargeRate = Kilowatts(3.0);
    config.batterySpec.capacity = KilowattHours(0.5);
    core::FleetSimulation fleet(config, kSites, 14 * 60,
                                Kilowatts(6.5));
    for (auto _ : state) {
        fleet.run(kChunk);
        benchmark::DoNotOptimize(fleet.result().numSites);
    }
    const double aggregate_slots =
        static_cast<double>(kChunk) * static_cast<double>(kSites);
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(aggregate_slots));
    state.counters["slots_per_iter"] = aggregate_slots;
    state.counters["aggregate_slots_per_iter"] = aggregate_slots;
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}
BENCHMARK(BM_LaneBatchFleet)->Unit(benchmark::kMillisecond);

// ---- Serial vs. parallel fleet simulation. ----

void
benchFleet(benchmark::State &state, std::size_t threads)
{
    util::ThreadPool::setGlobalThreads(threads);
    auto config = core::SimulationConfig::paperDefault();
    config.attackLoad = Kilowatts(3.0);
    config.batterySpec.maxDischargeRate = Kilowatts(3.0);
    config.batterySpec.capacity = KilowattHours(0.5);
    core::FleetSimulation fleet(config, 4, 14 * 60, Kilowatts(6.5));
    for (auto _ : state) {
        fleet.run(30);
        benchmark::DoNotOptimize(fleet.result().numSites);
    }
    state.SetItemsProcessed(state.iterations() * 30 * 4);
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}

void
BM_FleetSerial(benchmark::State &state)
{
    benchFleet(state, 1);
}
BENCHMARK(BM_FleetSerial)->Unit(benchmark::kMillisecond);

void
BM_FleetParallel(benchmark::State &state)
{
    benchFleet(state, util::ThreadPool::defaultThreads());
}
BENCHMARK(BM_FleetParallel)->Unit(benchmark::kMillisecond);

// ---- Serial vs. parallel CFD matrix extraction. ----

void
benchExtraction(benchmark::State &state, std::size_t threads)
{
    util::ThreadPool::setGlobalThreads(threads);
    const power::DataCenterLayout layout;
    CfdParams params;
    params.cellSize = 0.3; // coarse grid to keep one extraction short
    params.dt = 0.12;
    const std::vector<Kilowatts> baseline(layout.numServers(),
                                          Kilowatts(0.15));
    for (auto _ : state) {
        auto matrix = HeatDistributionMatrix::extractFromCfd(
            layout, params, baseline, Kilowatts(1.0), /*horizon=*/3,
            /*settle=*/minutes(2));
        benchmark::DoNotOptimize(matrix.coeff(0, 0, 0));
    }
    state.SetItemsProcessed(state.iterations() * layout.numServers());
    util::ThreadPool::setGlobalThreads(util::ThreadPool::defaultThreads());
}

void
BM_CfdExtractionSerial(benchmark::State &state)
{
    benchExtraction(state, 1);
}
BENCHMARK(BM_CfdExtractionSerial)->Unit(benchmark::kMillisecond);

void
BM_CfdExtractionParallel(benchmark::State &state)
{
    benchExtraction(state, util::ThreadPool::defaultThreads());
}
BENCHMARK(BM_CfdExtractionParallel)->Unit(benchmark::kMillisecond);

/**
 * Console output as usual, plus an in-memory copy of every finished run
 * for the stable-schema JSON summary.
 */
class PerfJsonReporter : public benchmark::ConsoleReporter
{
  public:
    struct CollectedRun
    {
        std::string name;
        std::string label;
        std::int64_t iterations = 0;
        double realTimeNs = 0.0;
        double cpuTimeNs = 0.0;
        std::vector<std::pair<std::string, double>> counters;
    };

    void
    ReportRuns(const std::vector<Run> &report) override
    {
        benchmark::ConsoleReporter::ReportRuns(report);
        for (const Run &run : report) {
            if (run.error_occurred)
                continue;
            CollectedRun collected;
            collected.name = run.benchmark_name();
            collected.label = run.report_label;
            collected.iterations = run.iterations;
            const double iters =
                run.iterations > 0 ? static_cast<double>(run.iterations)
                                   : 1.0;
            collected.realTimeNs =
                run.real_accumulated_time * 1e9 / iters;
            collected.cpuTimeNs = run.cpu_accumulated_time * 1e9 / iters;
            for (const auto &[counter_name, counter] : run.counters) {
                collected.counters.emplace_back(
                    counter_name, static_cast<double>(counter));
            }
            // Hardware-comparable per-slot costs for slot-loop benches:
            // tools/bench_compare.py gates regressions on these derived
            // counters (ns_per_slot_aggregate spreads the wall time over
            // every member's slots in a multi-member benchmark).
            const std::size_t present = collected.counters.size();
            for (std::size_t c = 0; c < present; ++c) {
                const auto &[counter_name, value] = collected.counters[c];
                if (value <= 0.0)
                    continue;
                if (counter_name == "slots_per_iter") {
                    collected.counters.emplace_back(
                        "ns_per_slot", collected.realTimeNs / value);
                } else if (counter_name == "aggregate_slots_per_iter") {
                    collected.counters.emplace_back(
                        "ns_per_slot_aggregate",
                        collected.realTimeNs / value);
                }
            }
            runs_.push_back(std::move(collected));
        }
    }

    const std::vector<CollectedRun> &runs() const { return runs_; }

  private:
    std::vector<CollectedRun> runs_;
};

bool
writePerfJson(const std::string &path,
              const std::vector<PerfJsonReporter::CollectedRun> &runs)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    using ecolo::telemetry::jsonEscape;
    os << "{\"schema\":\"edgetherm-bench-perf-v1\",\"benchmarks\":[";
    os.precision(17);
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const auto &run = runs[k];
        if (k > 0)
            os << ",";
        os << "{\"name\":\"" << jsonEscape(run.name)
           << "\",\"iterations\":" << run.iterations
           << ",\"real_time_ns\":" << run.realTimeNs
           << ",\"cpu_time_ns\":" << run.cpuTimeNs << ",\"label\":\""
           << jsonEscape(run.label) << "\",\"counters\":{";
        for (std::size_t c = 0; c < run.counters.size(); ++c) {
            if (c > 0)
                os << ",";
            os << "\"" << jsonEscape(run.counters[c].first)
               << "\":" << run.counters[c].second;
        }
        os << "}}";
    }
    os << "]}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    PerfJsonReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // A filtered run holds only some rows, so it writes the summary only
    // where EDGETHERM_BENCH_JSON names: never over the default file.
    const char *env_path = std::getenv("EDGETHERM_BENCH_JSON");
    const bool env_set = env_path != nullptr && env_path[0] != '\0';
    const std::string filter = benchmark::GetBenchmarkFilter();
    if (!env_set && !filter.empty() && filter != "." && filter != "all") {
        ecolo::inform("filtered run: perf summary not written "
                      "(set EDGETHERM_BENCH_JSON to write one)");
        return 0;
    }
    const std::string path = env_set ? env_path : "BENCH_perf.json";
    if (!writePerfJson(path, reporter.runs())) {
        ecolo::warn("could not write perf summary: ", path);
        return 1;
    }
    ecolo::inform("wrote perf summary: ", path, " (", reporter.runs().size(),
                  " benchmarks)");
    return 0;
}
