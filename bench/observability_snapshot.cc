/**
 * @file
 * Observability snapshot: runs the reference sweep (every workload,
 * full design space) with the profiler on and emits one JSON
 * document — the sweep shape, the memo-cache hit rates, the full
 * metrics dump, and the per-phase wall-clock — the source of the
 * checked-in BENCH_observability.json. Where BENCH_sweep.json
 * records how fast the sweep is, this records what the sweep *did*,
 * so instrumentation regressions (a counter that stops ticking, a
 * phase that disappears) show up as a diff.
 *
 * Usage: bench_observability_snapshot [--refs=N] [--threads=N]
 */

#include <algorithm>
#include <map>
#include <span>

#include "bench_common.hh"
#include "core/shard_runner.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/** The 64-point reference grid bench_batch_sweep_timing sweeps. */
std::vector<SystemConfig>
referenceGrid()
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t l1 = 1_KiB; l1 <= 128_KiB; l1 *= 2) {
        SystemConfig c;
        c.l1Bytes = l1;
        c.l2Bytes = 0;
        configs.push_back(c);
        for (std::uint64_t ratio = 2; ratio <= 128; ratio *= 2) {
            c.l2Bytes = l1 * ratio;
            configs.push_back(c);
        }
    }
    return configs;
}

/** Counters a supervised run must roll up identically to the
 *  in-process engine: the simulation- and sweep-level namespaces.
 *  trace.* is excluded because each worker subprocess loads the
 *  trace again (see tests/test_telemetry.cc). */
std::map<std::string, std::uint64_t>
comparableCounters()
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] :
         MetricsRegistry::global().counterValues()) {
        if (name.rfind("cache.", 0) == 0 ||
            name.rfind("explore.", 0) == 0)
            out[name] = value;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args = bench::parseDriverArgs(argc, argv);
    std::uint64_t refs = static_cast<std::uint64_t>(
        args.getInt("refs",
                    static_cast<std::int64_t>(
                        Workloads::defaultTraceLength() / 4)));

    MetricsRegistry::global().resetAll();
    Profiler::global().reset();
    Profiler::global().setEnabled(true);

    MissRateEvaluator ev(refs);
    Explorer ex(ev);
    SystemAssumptions a;
    std::size_t points = 0;
    FailureReport report;
    for (Benchmark b : Workloads::all())
        points += ex.sweep(b, a, true, true, &report).size();

    MetricsRegistry &m = MetricsRegistry::global();
    auto rate = [&](const char *hits, const char *misses) {
        double h = static_cast<double>(m.counter(hits).value());
        double n = h + static_cast<double>(m.counter(misses).value());
        return n ? h / n : 0.0;
    };

    // The reindent trick run_manifest.cc uses: nested dumps sit at
    // depth one inside this document.
    auto reindent = [](const std::string &block) {
        std::string out;
        for (char c : block) {
            out += c;
            if (c == '\n')
                out += "  ";
        }
        return out;
    };

    // Capture the in-process sweep's document pieces before the
    // supervised section below resets the registry.
    const std::string timingRate = jsonNumber(
        rate("explore.timing_cache.hits", "explore.timing_cache.misses"));
    const std::string missrateRate = jsonNumber(
        rate("explore.missrate_cache.hits",
             "explore.missrate_cache.misses"));
    const std::string metricsJson = reindent(m.toJson());
    const std::string phasesJson =
        reindent(Profiler::global().toJson());

    // Cross-process telemetry snapshot (docs/observability.md): run
    // the 64-point reference grid once in-process and once under the
    // shard supervisor and check the streamed metric rollups are
    // identical. The in-process side simulates the grid in the same
    // 32-point slices the shards use (one tryMissStatsBatch each, as
    // in a worker) and prices the whole grid from them once, as the
    // supervisor's parent does, so every comparable counter must
    // agree exactly.
    setParallelWorkerCount(1);
    const std::vector<SystemConfig> grid = referenceGrid();
    SupervisorOptions sopts;
    sopts.pointsPerShard = 32;
    sopts.evaluator.traceRefs = refs;

    m.resetAll();
    {
        MissRateEvaluator gev(refs);
        Explorer gex(gev);
        FailureReport greport;
        std::vector<Expected<HierarchyStats>> miss;
        const std::span<const SystemConfig> all(grid);
        for (std::size_t lo = 0; lo < grid.size();
             lo += sopts.pointsPerShard) {
            const std::size_t n =
                std::min(sopts.pointsPerShard, grid.size() - lo);
            for (Expected<HierarchyStats> &s :
                 gev.tryMissStatsBatch(Benchmark::Gcc1,
                                       all.subspan(lo, n)))
                miss.push_back(std::move(s));
        }
        gex.evaluateAll(Benchmark::Gcc1, grid, &greport,
                        [&miss](std::size_t lo, std::size_t hi) {
                            return std::vector<Expected<HierarchyStats>>(
                                miss.begin() +
                                    static_cast<std::ptrdiff_t>(lo),
                                miss.begin() +
                                    static_cast<std::ptrdiff_t>(hi));
                        });
    }
    const std::map<std::string, std::uint64_t> reference =
        comparableCounters();

    m.resetAll();
    SupervisionStats sup;
    std::size_t supervisedPoints = 0;
    {
        MissRateEvaluator gev(refs);
        Explorer gex(gev);
        FailureReport greport;
        SupervisedSweep sw =
            supervisedEvaluateAll(gex, Benchmark::Gcc1, grid,
                                  &greport, sopts);
        sup = sw.stats;
        supervisedPoints = sw.points.size();
    }
    const bool rollupsMatch = comparableCounters() == reference;
    std::size_t workerNamespaced = 0;
    for (const auto &[name, value] : m.counterValues()) {
        (void)value;
        if (name.rfind("worker.", 0) == 0)
            ++workerNamespaced;
    }
    setParallelWorkerCount(0);

    std::printf(
        "{\n"
        "  \"benchmark\": \"observability snapshot of the reference "
        "sweep\",\n"
        "  \"workloads\": %zu,\n"
        "  \"design_points\": %zu,\n"
        "  \"failures\": %zu,\n"
        "  \"trace_refs\": %llu,\n"
        "  \"timing_cache_hit_rate\": %s,\n"
        "  \"missrate_cache_hit_rate\": %s,\n"
        "  \"supervised_points\": %zu,\n"
        "  \"supervised_shards\": %llu,\n"
        "  \"supervised_worker_launches\": %llu,\n"
        "  \"telemetry_metric_frames\": %llu,\n"
        "  \"telemetry_phase_frames\": %llu,\n"
        "  \"telemetry_flight_frames\": %llu,\n"
        "  \"worker_namespace_counters\": %zu,\n"
        "  \"rollup_counters_compared\": %zu,\n"
        "  \"rollups_match_inprocess\": %s,\n"
        "  \"metrics\": %s,\n"
        "  \"phases\": %s\n"
        "}\n",
        Workloads::all().size(), points, report.size(),
        static_cast<unsigned long long>(refs), timingRate.c_str(),
        missrateRate.c_str(), supervisedPoints,
        static_cast<unsigned long long>(sup.shards),
        static_cast<unsigned long long>(sup.attempts),
        static_cast<unsigned long long>(sup.metricFrames),
        static_cast<unsigned long long>(sup.phaseFrames),
        static_cast<unsigned long long>(sup.flightFrames),
        workerNamespaced, reference.size(),
        rollupsMatch ? "true" : "false", metricsJson.c_str(),
        phasesJson.c_str());
    return 0;
}
