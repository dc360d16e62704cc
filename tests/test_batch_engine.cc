/**
 * @file
 * Differential tests for the single-pass multi-configuration engine:
 * every SimGroup lane flavour (flat direct-mapped single-level, flat
 * two-level inclusive/strict-inclusive, generic associative L1,
 * exclusive, victim cache, stream buffer) must produce HierarchyStats
 * byte-identical to running the corresponding Hierarchy alone over
 * the same records — including replacement RNG draws, LRU/FIFO stamp
 * ordering and write-back accounting — across warmup boundaries. The
 * SimdBackendDifferential cases pin the lane kernels' probe rows and
 * miss masks (rows from 1 lane up to a full 64-lane row) to the same
 * counters the solo hierarchies produce. On top sit the evaluator-level
 * equivalences: tryMissStatsBatch vs tryMissStats, the SweepRequest
 * entry point vs per-benchmark evaluateAll, and the FailureReport
 * snapshot contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/simd_lanes.hh"
#include "cache/single_level.hh"
#include "cache/stream_buffer.hh"
#include "cache/two_level.hh"
#include "cache/victim_cache.hh"
#include "core/batch_engine.hh"
#include "core/explorer.hh"
#include "util/parallel.hh"
#include "util/random.hh"
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

TEST(SimGroupDifferential, ExclusiveSharesL1WalkAndMatches)
{
    CacheParams l1;
    l1.sizeBytes = 2_KiB;
    CacheParams l2;
    l2.sizeBytes = 8_KiB;
    l2.assoc = 4;
    SimGroup group;
    std::size_t lane =
        group.addTwoLevel(l1, l2, TwoLevelPolicy::Exclusive);
    EXPECT_TRUE(group.laneIsFlat(lane));
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
    // The canonical lane-flavour zoo, solo-simulated once, then run
    // as one group. Any kernel divergence from the reference
    // semantics shows up as a counter mismatch here.
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

    SimGroup group;
    std::size_t single = group.addSingleLevel(l1);
    std::vector<std::size_t> lanes;
    for (std::size_t i = 0; i < shapes.size(); ++i)
        lanes.push_back(group.addTwoLevel(l1, l2s[i], shapes[i].policy));
    BatchEngine::run(sharedTrace(), kWarmup, group);
    expectSameStats(group.stats(single), single_ref);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectSameStats(group.stats(lanes[i]), refs[i]);
    }
}

TEST(SimdBackendDifferential, StrictLaneCountsSpanVectorWidths)
{
    // Strict-inclusive blocks answer all lanes' L1 probes with one
    // probe over an interleaved row, so the lane count is the row
    // width: 1 and 7 exercise short rows, 8 and 9 a host-cache-line
    // boundary, 32 a partial mask, and kMaxBlockLanes a full row,
    // which sets every bit of the 64-bit miss mask. Each lane gets a
    // distinct L2 so a lane-index mixup cannot cancel out.
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
                              std::size_t{32},
                              std::size_t{
                                  lanes::StrictLaneBlock::kMaxBlockLanes}}) {
        SCOPED_TRACE("lanes " + std::to_string(count));
        std::vector<HierarchyStats> refs;
        for (std::size_t i = 0; i < count; ++i)
            refs.push_back(solo<TwoLevelHierarchy>(
                kWarmup, l1, l2For(i), TwoLevelPolicy::StrictInclusive));
        SimGroup group;
        for (std::size_t i = 0; i < count; ++i)
            group.addTwoLevel(l1, l2For(i), TwoLevelPolicy::StrictInclusive);
        EXPECT_EQ(group.flatLaneCount(), count);
        BatchEngine::run(sharedTrace(), kWarmup, group);
        for (std::size_t i = 0; i < count; ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(group.stats(i), refs[i]);
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

TEST(SimdBackendDifferential, ExclusiveLanesMatchSoloAcrossL2Shapes)
{
    // Exclusive members replay their shared L1's miss queue through
    // their own L2s. Every L2 associativity (8 ways is past the FSM
    // tables, so it exercises the stamp fallback) under every
    // replacement policy, mixed with inclusive subs in one group, must
    // match a solo TwoLevelHierarchy at each warmup edge. Beyond the
    // 32 KiB grid over a 4 KiB L1:
    //  - the 16 KiB 4-way, 4 KiB direct-mapped and 4 KiB 8-way L2s
    //    have no more sets than the L1 has lines, so every swap takes
    //    the same-set path;
    //  - the 1 KiB L2 is the y < x case, where exclusion degenerates
    //    into a victim cache;
    //  - the 16 KiB 8-way L2s under a 1 KiB L1 (a second shared
    //    group) fill their sets while hits still land outside the
    //    victim's set, so LRU touches and stamp-picked victims show.
    struct Shape
    {
        std::uint64_t l1Bytes;
        std::uint64_t l2Bytes;
        std::uint32_t l2Assoc;
        ReplPolicy repl;
        TwoLevelPolicy policy;
        bool sameSet = false; ///< every L1 victim maps to the hit's set
    };
    constexpr TwoLevelPolicy kExcl = TwoLevelPolicy::Exclusive;
    std::vector<Shape> shapes;
    for (ReplPolicy repl :
         {ReplPolicy::Random, ReplPolicy::LRU, ReplPolicy::FIFO}) {
        for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
            shapes.push_back({4_KiB, 32_KiB, assoc, repl, kExcl});
            shapes.push_back(
                {4_KiB, 32_KiB, assoc, repl, TwoLevelPolicy::Inclusive});
        }
        shapes.push_back({4_KiB, 16_KiB, 4, repl, kExcl, true});
        shapes.push_back({4_KiB, 4_KiB, 8, repl, kExcl, true});
        shapes.push_back({4_KiB, 1_KiB, 2, repl, kExcl, true});
        shapes.push_back({1_KiB, 16_KiB, 8, repl, kExcl});
    }
    shapes.push_back({4_KiB, 4_KiB, 1, ReplPolicy::Random, kExcl, true});

    auto l1For = [](const Shape &s) {
        CacheParams l1;
        l1.sizeBytes = s.l1Bytes;
        return l1;
    };
    auto l2For = [](const Shape &s) {
        CacheParams l2;
        l2.sizeBytes = s.l2Bytes;
        l2.assoc = s.l2Assoc;
        l2.repl = s.repl;
        return l2;
    };
    for (std::uint64_t warmup : {std::uint64_t(0), kWarmup, kRefs / 2}) {
        SCOPED_TRACE("warmup " + std::to_string(warmup));
        std::vector<HierarchyStats> refs;
        for (const Shape &s : shapes) {
            refs.push_back(solo<TwoLevelHierarchy>(warmup, l1For(s),
                                                   l2For(s), s.policy));
            if (s.sameSet) {
                // The grid really takes the swap path: every hit swaps.
                EXPECT_GT(refs.back().swaps, 0u);
                EXPECT_EQ(refs.back().swaps, refs.back().l2Hits);
            }
        }
        SimGroup group;
        for (const Shape &s : shapes) {
            std::size_t lane =
                group.addTwoLevel(l1For(s), l2For(s), s.policy);
            EXPECT_TRUE(group.laneIsFlat(lane));
        }
        BatchEngine::run(sharedTrace(), warmup, group);
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameStats(group.stats(i), refs[i]);
        }
    }
}

TEST(SimdDispatch, TagAllocatorAlignsAndZeroes)
{
    // Both allocator paths (small aligned-new, large mmap) must hand
    // back 64-byte-aligned, already-zero memory — the kernels rely on
    // all-zero meaning "every tag word invalid", and resize() on a
    // TagVector intentionally skips value-initialization.
    for (std::size_t n : {std::size_t{512},
                          (lanes::TagAllocator<std::uint64_t>::kMmapBytes /
                           sizeof(std::uint64_t)) * 2}) {
        lanes::TagVector v;
        v.resize(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
        std::uint64_t acc = 0;
        for (std::uint64_t w : v)
            acc |= w;
        EXPECT_EQ(acc, 0u) << "n=" << n;
    }
}

// ---------------------------------------------------------------
// Forest walk: every direct-mapped L1 size of one line size is
// walked at once (lanes::walkForest), pipelined by epoch across the
// worker team (SimGroup::simulate).
// ---------------------------------------------------------------

namespace {

/** One lane of a randomized forest case. */
struct LaneSpec
{
    CacheParams l1;
    bool twoLevel = false;
    CacheParams l2;
    TwoLevelPolicy policy = TwoLevelPolicy::Inclusive;
};

HierarchyStats
soloLane(const LaneSpec &s, const TraceBuffer &t, std::uint64_t warmup)
{
    std::unique_ptr<Hierarchy> h;
    if (s.twoLevel)
        h = std::make_unique<TwoLevelHierarchy>(s.l1, s.l2, s.policy);
    else
        h = std::make_unique<SingleLevelHierarchy>(s.l1);
    h->simulate(t, warmup);
    return h->stats();
}

/**
 * Every lane of @p specs in one SimGroup, at team widths 1 and 4,
 * against its solo Hierarchy.
 */
void
expectGroupMatchesSolo(const std::vector<LaneSpec> &specs,
                       const TraceBuffer &t, std::uint64_t warmup)
{
    std::vector<HierarchyStats> refs;
    for (const LaneSpec &s : specs)
        refs.push_back(soloLane(s, t, warmup));
    const unsigned prev = parallelWorkerOverride();
    for (unsigned width : {1u, 4u}) {
        setParallelWorkerCount(width);
        SCOPED_TRACE("width " + std::to_string(width));
        SimGroup group;
        for (const LaneSpec &s : specs) {
            if (s.twoLevel)
                group.addTwoLevel(s.l1, s.l2, s.policy);
            else
                group.addSingleLevel(s.l1);
        }
        EXPECT_EQ(group.flatLaneCount(), specs.size());
        BatchEngine::run(t, warmup, group);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i) + ": L1 " +
                         specs[i].l1.toString() +
                         (specs[i].twoLevel
                              ? ", L2 " + specs[i].l2.toString() + " " +
                                    twoLevelPolicyName(specs[i].policy)
                              : std::string()));
            expectSameStats(group.stats(i), refs[i]);
        }
    }
    setParallelWorkerCount(prev);
}

/**
 * A seeded trace: a mostly sequential instruction stream with jumps,
 * a hot 8 KiB data region and a scattered 1 MiB one, with
 * @p store_pct percent of the data references stores.
 */
TraceBuffer
randomTrace(Pcg32 &rng, std::size_t n, std::uint32_t store_pct)
{
    TraceBuffer t;
    t.reserve(n);
    std::uint32_t pc = 0x10000;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t kind = rng.nextBounded(100);
        if (kind < 40) {
            pc = rng.nextBounded(12) == 0
                ? 0x10000 + 4 * rng.nextBounded(1u << 13)
                : pc + 4;
            t.append(pc, RefType::Instr);
            continue;
        }
        const std::uint32_t addr = kind < 80
            ? 0x400000 + 4 * rng.nextBounded(1u << 11)
            : 0x800000 + 4 * rng.nextBounded(1u << 18);
        t.append(addr, rng.nextBounded(100) < store_pct ? RefType::Store
                                                         : RefType::Load);
    }
    return t;
}

} // namespace

TEST(ForestDifferential, RandomForestsMatchSoloAtEveryWidthAndBackend)
{
    // Random subsets of L1 sizes (adjacent or not) per line size, one
    // or two line sizes per group, every lane flavour that shares or
    // sits beside a forest, store-heavy traces, and trace lengths and
    // warmups that cut epochs anywhere.
    constexpr std::uint64_t kCases = 10;
    const std::uint32_t lines[] = {4, 8, 16, 32, 64, 128, 256};
    const ReplPolicy repls[] = {ReplPolicy::Random, ReplPolicy::LRU,
                                ReplPolicy::FIFO};
    const TwoLevelPolicy policies[] = {TwoLevelPolicy::Inclusive,
                                       TwoLevelPolicy::Exclusive,
                                       TwoLevelPolicy::StrictInclusive};
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Pcg32 rng(seed, 0xf0e57);
        // Odd cases span a few epochs (65,536 records each), even
        // ones fit in one.
        const std::size_t n = seed % 2
            ? 65536 + 1 + rng.nextBounded(90000)
            : 1000 + rng.nextBounded(20000);
        const std::uint64_t warmup = seed == 2 ? 0
            : seed == 4                        ? n + 3
                                               : rng.nextBounded(
                                                     static_cast<std::uint32_t>(n));
        const TraceBuffer t = randomTrace(rng, n, 30 + rng.nextBounded(50));

        std::vector<LaneSpec> specs;
        const std::size_t line_sizes = 1 + seed % 2;
        for (std::size_t ls = 0; ls < line_sizes; ++ls) {
            const std::uint32_t line = lines[rng.nextBounded(7)];
            std::vector<std::uint64_t> sizes;
            for (std::uint64_t size = std::max<std::uint64_t>(line, 256);
                 size <= 32_KiB; size *= 2) {
                if (rng.nextBounded(5) < 2)
                    sizes.push_back(size);
            }
            if (sizes.empty())
                sizes.push_back(4_KiB);
            for (std::uint64_t size : sizes) {
                LaneSpec s;
                s.l1.sizeBytes = size;
                s.l1.lineBytes = line;
                if (rng.nextBounded(2) == 0)
                    specs.push_back(s);
                for (std::uint32_t k = rng.nextBounded(3); k > 0; --k) {
                    s.twoLevel = true;
                    s.policy = policies[rng.nextBounded(3)];
                    s.l2.lineBytes = line;
                    s.l2.assoc = 1u << rng.nextBounded(4);
                    s.l2.repl = repls[rng.nextBounded(3)];
                    // Exclusive L2s may be smaller than their L1.
                    const int shift = static_cast<int>(rng.nextBounded(5)) -
                        (s.policy == TwoLevelPolicy::Exclusive ? 1 : 0);
                    s.l2.sizeBytes = std::max<std::uint64_t>(
                        shift < 0 ? size / 2 : size << shift,
                        std::uint64_t{line} * s.l2.assoc);
                    specs.push_back(s);
                }
            }
        }
        if (specs.empty()) {
            LaneSpec s;
            s.l1.sizeBytes = 1_KiB;
            specs.push_back(s);
        }
        expectGroupMatchesSolo(specs, t, warmup);
    }
}

TEST(ForestDifferential, StoreHitInSmallL1WritesBackFromLargerL1)
{
    // A store that hits the smallest L1 dirties only that level. The
    // line must still leave each larger L1 dirty: 1 KiB evicts it
    // first, 4 KiB next and 16 KiB (not adjacent to 1 KiB) last, each
    // with an off-chip write-back when it has no L2 behind it.
    TraceBuffer t;
    for (std::uint32_t a : {0x0u, 0x40000u, 0x80030u}) {
        t.append(a, RefType::Load);                // A everywhere
        t.append(a, RefType::Store);               // hits 1 KiB
        t.append(a + 1_KiB, RefType::Load);        // 1 KiB evicts A
        t.append(a + 4_KiB, RefType::Load);        // 4 KiB evicts A
        t.append(a + 16_KiB, RefType::Load);       // 16 KiB evicts A
    }
    std::vector<LaneSpec> specs;
    for (std::uint64_t size : {1_KiB, 4_KiB, 16_KiB}) {
        LaneSpec s;
        s.l1.sizeBytes = size;
        specs.push_back(s);
        s.twoLevel = true;
        s.l2.sizeBytes = 32_KiB;
        for (TwoLevelPolicy p :
             {TwoLevelPolicy::Inclusive, TwoLevelPolicy::Exclusive}) {
            s.policy = p;
            specs.push_back(s);
        }
    }
    for (const LaneSpec &s : specs) {
        if (!s.twoLevel) {
            EXPECT_EQ(soloLane(s, t, 0).offchipWritebacks, 3u)
                << s.l1.toString();
        }
    }
    expectGroupMatchesSolo(specs, t, 0);
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
    EXPECT_EQ(r.flatLanes, 3u);
    EXPECT_EQ(r.genericLanes, 0u);
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
