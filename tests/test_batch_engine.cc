/**
 * @file
 * Differential tests for the single-pass multi-configuration engine:
 * every SimGroup lane flavour (flat direct-mapped single-level, flat
 * two-level inclusive/strict-inclusive, generic associative L1,
 * exclusive, victim cache, stream buffer) must produce HierarchyStats
 * byte-identical to running the corresponding Hierarchy alone over
 * the same records — including replacement RNG draws, LRU/FIFO stamp
 * ordering and write-back accounting — across warmup boundaries. The
 * SimdBackendDifferential cases re-prove the lane equivalences under
 * EVERY SIMD backend this host can run (forced via setSimdBackend),
 * so scalar and vector kernels are pinned to the same counters the
 * solo hierarchies produce. On top sit the evaluator-level
 * equivalences: tryMissStatsBatch vs tryMissStats, the SweepRequest
 * entry point vs per-benchmark evaluateAll, and the FailureReport
 * snapshot contract.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cache/single_level.hh"
#include "cache/stream_buffer.hh"
#include "cache/two_level.hh"
#include "cache/victim_cache.hh"
#include "core/batch_engine.hh"
#include "core/explorer.hh"
#include "util/parallel.hh"
#include "util/simd.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/// Long enough that warmup, L2 activity, random replacement and
/// write-backs all engage; short enough to keep the suite quick.
constexpr std::uint64_t kRefs = 20000;
constexpr std::uint64_t kWarmup = 2000;

const TraceBuffer &
sharedTrace()
{
    static TraceBuffer t = Workloads::generate(Benchmark::Gcc1, kRefs);
    return t;
}

/** Bitwise equality of every statistics field. */
void
expectSameStats(const HierarchyStats &a, const HierarchyStats &b)
{
    EXPECT_EQ(a.instrRefs, b.instrRefs);
    EXPECT_EQ(a.dataRefs, b.dataRefs);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.offchipWritebacks, b.offchipWritebacks);
}

/** Reference result: one Hierarchy simulated alone. */
template <typename H, typename... Args>
HierarchyStats
solo(std::uint64_t warmup, Args &&...args)
{
    H h(std::forward<Args>(args)...);
    h.simulate(sharedTrace(), warmup);
    return h.stats();
}

/** Every SIMD backend this host can actually run (scalar always). */
std::vector<SimdBackend>
runnableBackends()
{
    std::vector<SimdBackend> v;
    for (SimdBackend b : {SimdBackend::Scalar, SimdBackend::Avx2})
        if (simdBackendSupported(b))
            v.push_back(b);
    return v;
}

/** RAII: force a backend for one scope, restore detection after. */
struct BackendGuard
{
    explicit BackendGuard(SimdBackend b) { setSimdBackend(b); }
    ~BackendGuard() { clearSimdBackendOverride(); }
};

} // namespace

TEST(SimGroupDifferential, DmSingleLevelMatchesHierarchy)
{
    SimGroup group;
    std::vector<CacheParams> shapes;
    for (std::uint64_t size : {1_KiB, 4_KiB, 32_KiB})
        for (std::uint32_t line : {16u, 32u}) {
            CacheParams p;
            p.sizeBytes = size;
            p.lineBytes = line;
            shapes.push_back(p);
        }
    for (const CacheParams &p : shapes) {
        std::size_t lane = group.addSingleLevel(p);
        EXPECT_TRUE(group.laneIsFlat(lane));
    }
    BatchEngine::run(sharedTrace(), kWarmup, group);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectSameStats(group.stats(i),
                        solo<SingleLevelHierarchy>(kWarmup, shapes[i]));
    }
}

TEST(SimGroupDifferential, AssociativeL1TakesGenericPathAndMatches)
{
    CacheParams p;
    p.sizeBytes = 8_KiB;
    p.assoc = 4;
    p.repl = ReplPolicy::LRU;
    SimGroup group;
    std::size_t lane = group.addSingleLevel(p);
    EXPECT_FALSE(group.laneIsFlat(lane));
    EXPECT_EQ(group.flatLaneCount(), 0u);
    BatchEngine::run(sharedTrace(), kWarmup, group);
    expectSameStats(group.stats(lane),
                    solo<SingleLevelHierarchy>(kWarmup, p));
}

TEST(SimGroupDifferential, FlatTwoLevelMatchesHierarchy)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    struct Shape
    {
        std::uint32_t l2Assoc;
        ReplPolicy repl;
        TwoLevelPolicy policy;
    };
    std::vector<Shape> shapes;
    for (std::uint32_t assoc : {1u, 4u})
        for (ReplPolicy repl :
             {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO})
            for (TwoLevelPolicy policy : {TwoLevelPolicy::Inclusive,
                                          TwoLevelPolicy::StrictInclusive})
                shapes.push_back({assoc, repl, policy});

    SimGroup group;
    std::vector<CacheParams> l2s;
    for (const Shape &s : shapes) {
        CacheParams l2;
        l2.sizeBytes = 16_KiB;
        l2.assoc = s.l2Assoc;
        l2.repl = s.repl;
        l2s.push_back(l2);
        std::size_t lane = group.addTwoLevel(l1, l2, s.policy);
        EXPECT_TRUE(group.laneIsFlat(lane));
    }
    BatchEngine::run(sharedTrace(), kWarmup, group);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectSameStats(group.stats(i),
                        solo<TwoLevelHierarchy>(kWarmup, l1, l2s[i],
                                                shapes[i].policy));
    }
}

TEST(SimGroupDifferential, ExclusiveTakesGenericPathAndMatches)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    CacheParams l2;
    l2.sizeBytes = 8_KiB;
    l2.assoc = 4;
    SimGroup group;
    std::size_t lane =
        group.addTwoLevel(l1, l2, TwoLevelPolicy::Exclusive);
    EXPECT_FALSE(group.laneIsFlat(lane));
    BatchEngine::run(sharedTrace(), kWarmup, group);
    expectSameStats(group.stats(lane),
                    solo<TwoLevelHierarchy>(kWarmup, l1, l2,
                                            TwoLevelPolicy::Exclusive));
}

TEST(SimGroupDifferential, VictimAndStreamBufferLanesMatch)
{
    CacheParams l1;
    l1.sizeBytes = 4_KiB;
    SimGroup group;
    std::size_t victim_lane = group.addHierarchy(
        std::make_unique<VictimCacheHierarchy>(l1, 4));
    std::size_t stream_lane = group.addHierarchy(
        std::make_unique<StreamBufferHierarchy>(l1, 4, 4));
    EXPECT_FALSE(group.laneIsFlat(victim_lane));
    EXPECT_FALSE(group.laneIsFlat(stream_lane));
    BatchEngine::run(sharedTrace(), kWarmup, group);
    expectSameStats(group.stats(victim_lane),
                    solo<VictimCacheHierarchy>(kWarmup, l1, 4));
    expectSameStats(group.stats(stream_lane),
                    solo<StreamBufferHierarchy>(kWarmup, l1, 4, 4));
}

TEST(SimGroupDifferential, MixedLaneGroupMatchesAtEveryWarmup)
{
    // Warmup boundaries: none, mid-trace, the whole trace, and past
    // the end (Hierarchy::simulate clamps — so must BatchEngine).
    for (std::uint64_t warmup :
         {std::uint64_t(0), kRefs / 2, kRefs, kRefs + 5000}) {
        SCOPED_TRACE("warmup " + std::to_string(warmup));
        CacheParams l1;
        l1.sizeBytes = 2_KiB;
        CacheParams l2;
        l2.sizeBytes = 16_KiB;
        l2.assoc = 4;
        SimGroup group;
        group.addSingleLevel(l1);
        group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive);
        BatchEngine::run(sharedTrace(), warmup, group);
        expectSameStats(group.stats(0),
                        solo<SingleLevelHierarchy>(warmup, l1));
        expectSameStats(group.stats(1),
                        solo<TwoLevelHierarchy>(warmup, l1, l2,
                                                TwoLevelPolicy::Inclusive));
    }
}

TEST(SimGroupDifferential, ResultsIndependentOfLaneOrder)
{
    // A lane's counters must not depend on what else rides in the
    // group (full lane independence — the property that makes batch
    // partitioning invisible to results).
    CacheParams small;
    small.sizeBytes = 1_KiB;
    CacheParams big;
    big.sizeBytes = 64_KiB;
    SimGroup ab, ba;
    ab.addSingleLevel(small);
    ab.addSingleLevel(big);
    ba.addSingleLevel(big);
    ba.addSingleLevel(small);
    BatchEngine::run(sharedTrace(), kWarmup, ab);
    BatchEngine::run(sharedTrace(), kWarmup, ba);
    expectSameStats(ab.stats(0), ba.stats(1));
    expectSameStats(ab.stats(1), ba.stats(0));
}

TEST(SimdBackendDifferential, EveryBackendMatchesSoloAcrossFlavours)
{
    // The canonical lane-flavour zoo, solo-simulated once; then the
    // same group is rebuilt and run under every backend this host
    // can execute. Any vector-kernel divergence from the scalar
    // reference semantics shows up as a counter mismatch here.
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    struct Shape
    {
        std::uint32_t l2Assoc;
        ReplPolicy repl;
        TwoLevelPolicy policy;
    };
    std::vector<Shape> shapes;
    for (std::uint32_t assoc : {1u, 4u})
        for (ReplPolicy repl :
             {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO})
            for (TwoLevelPolicy policy : {TwoLevelPolicy::Inclusive,
                                          TwoLevelPolicy::StrictInclusive})
                shapes.push_back({assoc, repl, policy});

    std::vector<CacheParams> l2s;
    std::vector<HierarchyStats> refs;
    for (const Shape &s : shapes) {
        CacheParams l2;
        l2.sizeBytes = 16_KiB;
        l2.assoc = s.l2Assoc;
        l2.repl = s.repl;
        l2s.push_back(l2);
        refs.push_back(
            solo<TwoLevelHierarchy>(kWarmup, l1, l2, s.policy));
    }
    HierarchyStats single_ref = solo<SingleLevelHierarchy>(kWarmup, l1);

    for (SimdBackend backend : runnableBackends()) {
        SCOPED_TRACE(simdBackendName(backend));
        BackendGuard guard(backend);
        SimGroup group;
        std::size_t single = group.addSingleLevel(l1);
        std::vector<std::size_t> lanes;
        for (std::size_t i = 0; i < shapes.size(); ++i)
            lanes.push_back(
                group.addTwoLevel(l1, l2s[i], shapes[i].policy));
        BatchEngine::run(sharedTrace(), kWarmup, group);
        expectSameStats(group.stats(single), single_ref);
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(group.stats(lanes[i]), refs[i]);
        }
    }
}

TEST(SimdBackendDifferential, StrictLaneCountsSpanVectorWidths)
{
    // Strict-inclusive blocks answer all lanes' L1 probes with one
    // vector sweep over an interleaved row, so the lane count is the
    // vector trip count: 1 and 7 exercise sub-width tails, 8 and 9
    // the exact-width and width-plus-one boundaries, 32 several full
    // vectors per row. Each lane gets a distinct L2 so a lane-index
    // mixup cannot cancel out.
    CacheParams l1;
    l1.sizeBytes = 1_KiB;
    auto l2For = [](std::size_t i) {
        CacheParams l2;
        l2.sizeBytes = 8_KiB << (i % 4);
        l2.assoc = (i % 2) ? 4 : 1;
        l2.repl = (i % 3 == 0)   ? ReplPolicy::Random
                  : (i % 3 == 1) ? ReplPolicy::LRU
                                 : ReplPolicy::FIFO;
        return l2;
    };

    for (std::size_t count : {std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9},
                              std::size_t{32}}) {
        SCOPED_TRACE("lanes " + std::to_string(count));
        std::vector<HierarchyStats> refs;
        for (std::size_t i = 0; i < count; ++i)
            refs.push_back(solo<TwoLevelHierarchy>(
                kWarmup, l1, l2For(i), TwoLevelPolicy::StrictInclusive));
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            for (std::size_t i = 0; i < count; ++i)
                group.addTwoLevel(l1, l2For(i),
                                  TwoLevelPolicy::StrictInclusive);
            EXPECT_EQ(group.flatLaneCount(), count);
            BatchEngine::run(sharedTrace(), kWarmup, group);
            for (std::size_t i = 0; i < count; ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                expectSameStats(group.stats(i), refs[i]);
            }
        }
    }
}

TEST(SimdBackendDifferential, WarmupEdgesMatchUnderEveryBackend)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    CacheParams l2;
    l2.sizeBytes = 16_KiB;
    l2.assoc = 4;
    for (std::uint64_t warmup :
         {std::uint64_t(0), kRefs / 2, kRefs, kRefs + 5000}) {
        SCOPED_TRACE("warmup " + std::to_string(warmup));
        HierarchyStats single_ref =
            solo<SingleLevelHierarchy>(warmup, l1);
        HierarchyStats incl_ref = solo<TwoLevelHierarchy>(
            warmup, l1, l2, TwoLevelPolicy::Inclusive);
        HierarchyStats strict_ref = solo<TwoLevelHierarchy>(
            warmup, l1, l2, TwoLevelPolicy::StrictInclusive);
        for (SimdBackend backend : runnableBackends()) {
            SCOPED_TRACE(simdBackendName(backend));
            BackendGuard guard(backend);
            SimGroup group;
            group.addSingleLevel(l1);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::StrictInclusive);
            BatchEngine::run(sharedTrace(), warmup, group);
            expectSameStats(group.stats(0), single_ref);
            expectSameStats(group.stats(1), incl_ref);
            expectSameStats(group.stats(2), strict_ref);
        }
    }
}

TEST(SimdBackendDifferential, VectorBackendsMatchScalarByteForByte)
{
    // Scalar is the reference kernel; every vector backend must
    // reproduce its counters exactly on an identical group. (Solo
    // equivalence above implies this, but the direct comparison
    // localizes a failure to the pair of kernels that disagree.)
    std::vector<SimdBackend> backends = runnableBackends();
    ASSERT_EQ(backends.front(), SimdBackend::Scalar);

    CacheParams l1;
    l1.sizeBytes = 4_KiB;
    auto runAll = [&](SimdBackend backend) {
        BackendGuard guard(backend);
        SimGroup group;
        group.addSingleLevel(l1);
        for (std::uint64_t l2_size : {8_KiB, 32_KiB, 128_KiB}) {
            CacheParams l2;
            l2.sizeBytes = l2_size;
            l2.assoc = 4;
            group.addTwoLevel(l1, l2, TwoLevelPolicy::Inclusive);
            group.addTwoLevel(l1, l2, TwoLevelPolicy::StrictInclusive);
        }
        BatchEngine::run(sharedTrace(), kWarmup, group);
        std::vector<HierarchyStats> all;
        for (std::size_t i = 0; i < group.laneCount(); ++i)
            all.push_back(group.stats(i));
        return all;
    };

    std::vector<HierarchyStats> scalar = runAll(SimdBackend::Scalar);
    for (std::size_t b = 1; b < backends.size(); ++b) {
        SCOPED_TRACE(simdBackendName(backends[b]));
        std::vector<HierarchyStats> vec = runAll(backends[b]);
        ASSERT_EQ(vec.size(), scalar.size());
        for (std::size_t i = 0; i < scalar.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(vec[i], scalar[i]);
        }
    }
}

TEST(BatchEngine, SimulateConfigsReportsLaneSplit)
{
    std::vector<SystemConfig> configs(3);
    configs[0].l1Bytes = 4_KiB;
    configs[0].l2Bytes = 0;
    configs[1].l1Bytes = 4_KiB;
    configs[1].l2Bytes = 32_KiB;
    configs[2].l1Bytes = 4_KiB;
    configs[2].l2Bytes = 32_KiB;
    configs[2].assume.policy = TwoLevelPolicy::Exclusive;
    BatchEngine::Result r =
        BatchEngine::simulateConfigs(sharedTrace(), kWarmup, configs);
    ASSERT_EQ(r.stats.size(), 3u);
    EXPECT_EQ(r.flatLanes, 2u);
    EXPECT_EQ(r.genericLanes, 1u);
    for (const HierarchyStats &s : r.stats)
        EXPECT_EQ(s.totalRefs(), kRefs - kWarmup);
}

TEST(EvaluatorBatch, BatchMatchesPointwiseMissStats)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);
    ASSERT_GT(configs.size(), 40u);

    MissRateEvaluator batched(kRefs);
    MissRateEvaluator pointwise(kRefs);
    auto results =
        batched.tryMissStatsBatch(Benchmark::Espresso, configs);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + configs[i].label());
        ASSERT_TRUE(results[i].ok());
        HierarchyStats ref =
            pointwise.tryMissStats(Benchmark::Espresso, configs[i])
                .value();
        expectSameStats(results[i].value(), ref);
    }
}

TEST(EvaluatorBatch, InvalidConfigsFailSoftInTheirSlots)
{
    std::vector<SystemConfig> configs(3);
    configs[0].l1Bytes = 4_KiB;
    configs[1].l1Bytes = 3000; // not a power of two
    configs[2].l1Bytes = 8_KiB;
    MissRateEvaluator ev(kRefs);
    auto results = ev.tryMissStatsBatch(Benchmark::Li, configs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status().code(), StatusCode::InvalidConfig);
    EXPECT_TRUE(results[2].ok());
}

TEST(EvaluatorBatch, DuplicatesAndMemoHitsShareOneSimulation)
{
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    c.l2Bytes = 32_KiB;
    SystemConfig timing_twin = c; // same memo key, different timing
    timing_twin.assume.offchipNs = 200;
    SystemConfig other;
    other.l1Bytes = 8_KiB;

    MissRateEvaluator ev(kRefs);
    HierarchyStats first = ev.tryMissStats(Benchmark::Gcc1, c).value();
    EXPECT_EQ(ev.memoSize(), 1u);

    std::vector<SystemConfig> configs = {c, timing_twin, other, c};
    auto results = ev.tryMissStatsBatch(Benchmark::Gcc1, configs);
    ASSERT_EQ(results.size(), 4u);
    // Only `other` was new.
    EXPECT_EQ(ev.memoSize(), 2u);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok());
    expectSameStats(results[0].value(), first);
    expectSameStats(results[1].value(), first);
    expectSameStats(results[3].value(), first);
}

TEST(EvaluatorBatch, MissingTraceFileFailsEverySlot)
{
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    opts.traceFiles[Benchmark::Doduc] = "/nonexistent/doduc.trc";
    MissRateEvaluator ev(std::move(opts));
    std::vector<SystemConfig> configs(2);
    configs[0].l1Bytes = 4_KiB;
    configs[1].l1Bytes = 8_KiB;
    auto results = ev.tryMissStatsBatch(Benchmark::Doduc, configs);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::IoError);
    }
}

TEST(EvaluatorBatch, AllLanesFailingLeavesBatchWellFormed)
{
    // Every slot invalid: the batch must fail soft per slot without
    // simulating anything, polluting the memo, or wedging the
    // evaluator for later, healthy batches.
    std::vector<SystemConfig> bad(3);
    bad[0].l1Bytes = 3000;  // not a power of two
    bad[1].l1Bytes = 4_KiB;
    bad[1].l2Bytes = 3000; // not a power of two
    bad[2].l1Bytes = 0;

    MissRateEvaluator ev(kRefs);
    auto results = ev.tryMissStatsBatch(Benchmark::Li, bad);
    ASSERT_EQ(results.size(), bad.size());
    for (const auto &r : results) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::InvalidConfig);
    }
    EXPECT_EQ(ev.memoSize(), 0u);

    SystemConfig good;
    good.l1Bytes = 4_KiB;
    auto after = ev.tryMissStatsBatch(Benchmark::Li, {&good, 1});
    ASSERT_EQ(after.size(), 1u);
    EXPECT_TRUE(after[0].ok());
}

TEST(SweepRequestApi, MatchesPerBenchmarkEvaluateAll)
{
    SystemAssumptions a;
    SweepRequest req;
    req.configs = DesignSpace::enumerate(a, true, false);
    req.benchmarks = {Benchmark::Espresso, Benchmark::Li};

    MissRateEvaluator ev_req(kRefs);
    Explorer ex_req(ev_req);
    auto sweeps = ex_req.evaluateAll(req);
    ASSERT_EQ(sweeps.size(), 2u);

    MissRateEvaluator ev_ref(kRefs);
    Explorer ex_ref(ev_ref);
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        EXPECT_EQ(sweeps[s].benchmark, req.benchmarks[s]);
        auto ref =
            ex_ref.evaluateAll(req.benchmarks[s], req.configs, nullptr);
        ASSERT_EQ(sweeps[s].points.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            SCOPED_TRACE(ref[i].config.label());
            expectSameStats(sweeps[s].points[i].miss, ref[i].miss);
            EXPECT_EQ(sweeps[s].points[i].tpi.tpi, ref[i].tpi.tpi);
            EXPECT_EQ(sweeps[s].points[i].areaRbe, ref[i].areaRbe);
        }
    }
}

TEST(SweepRequestApi, ThreadOverrideIsScopedToTheCall)
{
    setParallelWorkerCount(3);
    SweepRequest req;
    SystemConfig c;
    c.l1Bytes = 4_KiB;
    req.configs = {c};
    req.benchmarks = {Benchmark::Li};
    req.threads = 2;
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    auto sweeps = ex.evaluateAll(req);
    ASSERT_EQ(sweeps.size(), 1u);
    EXPECT_EQ(sweeps[0].points.size(), 1u);
    // The request's override must not leak past the call.
    EXPECT_EQ(parallelWorkerOverride(), 3u);
    setParallelWorkerCount(0);
}

TEST(SweepRequestApi, ReportCollectsFailuresAcrossBenchmarks)
{
    SweepRequest req;
    SystemConfig good;
    good.l1Bytes = 4_KiB;
    SystemConfig bad;
    bad.l1Bytes = 3000;
    req.configs = {good, bad};
    req.benchmarks = {Benchmark::Li, Benchmark::Espresso};
    FailureReport report;
    req.report = &report;
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    auto sweeps = ex.evaluateAll(req);
    ASSERT_EQ(sweeps.size(), 2u);
    EXPECT_EQ(sweeps[0].points.size(), 1u);
    EXPECT_EQ(sweeps[1].points.size(), 1u);
    EXPECT_EQ(report.size(), 2u); // the bad config, once per bench
}

TEST(FailureReportApi, FailuresReturnsStableSnapshot)
{
    FailureReport report;
    report.add("first", statusf(StatusCode::InternalError, "one"));
    std::vector<SweepFailure> snap = report.failures();
    ASSERT_EQ(snap.size(), 1u);
    report.add("second", statusf(StatusCode::InternalError, "two"));
    // The snapshot is a value copy: later writers cannot grow or
    // invalidate it.
    EXPECT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].subject, "first");
    EXPECT_EQ(report.failures().size(), 2u);
}
