/**
 * @file
 * Before/after timing of the single-pass multi-configuration engine:
 * simulates a fixed 64-point grid (8 single-level L1 sizes plus 8 x 7
 * two-level capacity ratios) once point-major (one trace walk per
 * configuration via tryMissStats) and once batched (one trace walk
 * for all lanes via tryMissStatsBatch), then repeats the comparison
 * for the strict-inclusive variant of the 56 two-level points (the
 * interleaved-lane kernel, see docs/parallelism.md). Both modes run
 * pinned to a single worker thread so the comparison isolates the
 * engine itself from thread-level parallelism, and each timing is the
 * best of --reps runs on a fresh evaluator (the modes are memoized,
 * so a rep must never share an evaluator with the last). The two
 * modes alternate rep by rep, so a slow spell on the host lands on
 * both sides of the ratio instead of skewing one. Emits JSON — the
 * source of the checked-in BENCH_batch.json — and fatals if
 * point-major and batched disagree on a single counter, so the
 * speedup claim can never drift from the equivalence claim.
 *
 * "speedup_vs_prior_batched" normalizes this run's speedup by the
 * sub-major scalar engine's committed speedup (3.81 on the reference
 * machine): point-major runs identical code in both snapshots, so
 * the ratio of ratios tracks the batched-kernel improvement while
 * cancelling the machine.
 *
 * Usage: bench_batch_sweep_timing [--refs=N] [--reps=N]
 */

#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/** The committed speedup of the engine this kernel replaced. */
constexpr double kPriorBatchedSpeedup = 3.81;

/** The fixed grid: 1K..128K L1s, alone and under 2x..128x L2s. */
std::vector<SystemConfig>
makeGrid(TwoLevelPolicy policy, bool include_single_level)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t l1 = 1_KiB; l1 <= 128_KiB; l1 *= 2) {
        SystemConfig c;
        c.assume.policy = policy;
        c.l1Bytes = l1;
        c.l2Bytes = 0;
        if (include_single_level)
            configs.push_back(c);
        for (std::uint64_t ratio = 2; ratio <= 128; ratio *= 2) {
            c.l2Bytes = l1 * ratio;
            configs.push_back(c);
        }
    }
    return configs;
}

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * One timed run of one mode over @p configs on a fresh evaluator
 * (trace generated outside the timed region); its stats land in
 * @p out. Runs are deterministic replicas, so any run's stats are
 * THE stats.
 */
double
timeMode(const std::vector<SystemConfig> &configs, std::uint64_t refs,
         bool batched, std::vector<HierarchyStats> *out)
{
    Benchmark b = Benchmark::Gcc1;
    MissRateEvaluator ev(refs);
    (void)ev.tryTrace(b);
    std::vector<HierarchyStats> stats;
    stats.reserve(configs.size());
    auto t0 = std::chrono::steady_clock::now();
    if (batched) {
        auto results = ev.tryMissStatsBatch(b, configs);
        for (auto &r : results)
            stats.push_back(r.value());
    } else {
        for (const SystemConfig &c : configs)
            stats.push_back(ev.tryMissStats(b, c).value());
    }
    auto t1 = std::chrono::steady_clock::now();
    *out = std::move(stats);
    return seconds(t0, t1);
}

/** Best-of-@p reps seconds of each mode. */
struct ModeTimes
{
    double point = 0;
    double batched = 0;
};

/**
 * Time both modes over @p configs, alternating them rep by rep and
 * keeping each mode's best; the stats of the last reps land in
 * @p point_out and @p batch_out.
 */
ModeTimes
timeModes(const std::vector<SystemConfig> &configs, std::uint64_t refs,
          int reps, std::vector<HierarchyStats> *point_out,
          std::vector<HierarchyStats> *batch_out)
{
    ModeTimes best;
    for (int rep = 0; rep < reps; ++rep) {
        double p = timeMode(configs, refs, false, point_out);
        double b = timeMode(configs, refs, true, batch_out);
        if (rep == 0 || p < best.point)
            best.point = p;
        if (rep == 0 || b < best.batched)
            best.batched = b;
    }
    return best;
}

/**
 * The equivalence self-check: the speedup only counts if the batched
 * engine reproduced the point-major counters exactly.
 */
void
checkSame(const std::vector<SystemConfig> &configs,
          const std::vector<HierarchyStats> &point,
          const std::vector<HierarchyStats> &batch, const char *mode)
{
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const HierarchyStats &ps = point[i];
        const HierarchyStats &bs = batch[i];
        if (bs.instrRefs != ps.instrRefs || bs.dataRefs != ps.dataRefs ||
            bs.l1iMisses != ps.l1iMisses ||
            bs.l1dMisses != ps.l1dMisses || bs.l2Hits != ps.l2Hits ||
            bs.l2Misses != ps.l2Misses || bs.swaps != ps.swaps ||
            bs.offchipWritebacks != ps.offchipWritebacks)
            fatal("batched stats diverged from point-major at %s (%s)",
                  configs[i].label().c_str(), mode);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    applyStandardFlags(args);
    std::uint64_t refs = static_cast<std::uint64_t>(
        args.getInt("refs",
                    static_cast<std::int64_t>(
                        Workloads::defaultTraceLength() / 4)));
    int reps = static_cast<int>(args.getInt("reps", 3));
    if (reps < 1)
        fatal("--reps must be at least 1");

    std::vector<SystemConfig> grid =
        makeGrid(TwoLevelPolicy::Inclusive, true);
    std::vector<SystemConfig> strict_grid =
        makeGrid(TwoLevelPolicy::StrictInclusive, false);

    // One worker isolates the engine from thread-level parallelism.
    setParallelWorkerCount(1);
    std::vector<HierarchyStats> point_stats, batch_stats;
    ModeTimes t = timeModes(grid, refs, reps, &point_stats, &batch_stats);
    std::vector<HierarchyStats> strict_point_stats, strict_batch_stats;
    ModeTimes strict = timeModes(strict_grid, refs, reps,
                                 &strict_point_stats, &strict_batch_stats);
    setParallelWorkerCount(0);

    checkSame(grid, point_stats, batch_stats, "inclusive grid");
    checkSame(strict_grid, strict_point_stats, strict_batch_stats,
              "strict grid");

    double speedup = t.point / t.batched;
    std::printf("{\n"
                "  \"benchmark\": \"single-pass batched simulation\",\n"
                "  \"workload\": \"gcc1\",\n"
                "  \"design_points\": %zu,\n"
                "  \"trace_refs\": %llu,\n"
                "  \"reps\": %d,\n"
                "  \"hardware_concurrency\": %u,\n"
                "  \"point_major_seconds\": %.3f,\n"
                "  \"batched_seconds\": %.3f,\n"
                "  \"speedup\": %.2f,\n"
                "  \"speedup_vs_prior_batched\": %.2f,\n"
                "  \"strict_points\": %zu,\n"
                "  \"strict_point_major_seconds\": %.3f,\n"
                "  \"strict_batched_seconds\": %.3f,\n"
                "  \"strict_speedup\": %.2f\n"
                "}\n",
                grid.size(), static_cast<unsigned long long>(refs),
                reps, std::thread::hardware_concurrency(), t.point,
                t.batched, speedup, speedup / kPriorBatchedSpeedup,
                strict_grid.size(), strict.point, strict.batched,
                strict.point / strict.batched);
    return 0;
}
