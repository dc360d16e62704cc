/**
 * @file
 * SimGroup: N independent cache hierarchies driven in lock-step over
 * one decoded trace — the cache-layer half of the single-pass
 * multi-configuration simulation engine (src/core/batch_engine.hh is
 * the config-mapping half).
 *
 * Sweeping the paper's design space the obvious way re-walks the
 * same multi-million-reference trace once per configuration, and on
 * this machine the trace walk dominates wall clock. SimGroup inverts
 * the loop: the trace is decoded once and each reference is applied
 * to every registered lane, epoch by epoch, so the trace data
 * streams through the caches of the *host* once per epoch instead of
 * once per configuration.
 *
 * SimGroup itself is the grouping and scheduling layer: it decides
 * which lanes can share simulated state, which structure-of-arrays
 * flavour each one runs on, and how a trace pass spreads over the
 * worker team. The lane layouts and their kernels live in
 * cache/simd_lanes.hh:
 *
 *  - SharedL1Group — all lanes over one direct-mapped L1 geometry
 *    whose L2 side never reaches back into the L1: plain-inclusive
 *    and exclusive two-level lanes (private L2s replayed from a
 *    shared miss queue) and L1-only lanes (bit-identical, one shared
 *    stats block). An L2-capacity sweep over a fixed L1 costs one L1
 *    simulation instead of N.
 *  - L1Forest — all SharedL1Groups of one line size. Direct-mapped
 *    L1s of one line size nest (set-refinement inclusion), so ONE
 *    walk that probes them smallest first and stops at the first hit
 *    serves an L1-capacity sweep too: a design-space sweep walks its
 *    trace once per line size, not once per L1 size.
 *  - StrictLaneBlock — strict-inclusive lanes, which need private
 *    L1s (back-invalidation), interleaved so one probe per record
 *    answers every lane's L1 lookup at once.
 *  - Generic lanes wrapping any Hierarchy (victim cache, stream
 *    buffer, associative L1s) accessed record-by-record through the
 *    virtual interface.
 *
 * simulate() pipelines the pass by epoch (~64 K records, with a cut
 * at the warmup boundary) across the parallelFor team
 * (util/parallel.hh), one parallelFor per epoch: one task per forest
 * walks epoch e+1 into one half of each level's double-buffered miss
 * queue while the rest of the team replays epoch e from the other
 * half in same-policy sub tasks, kReplayInterleave subs wide
 * (narrower only where a level's subs would otherwise hold more than
 * one worker's share of the epoch's replay work), with each strict
 * block and generic lane a task of its own. Called from
 * inside a parallelFor worker, the same schedule runs serially.
 *
 * Equivalence contract: every lane produces HierarchyStats
 * byte-identical to running the corresponding Hierarchy alone over
 * the same records — including replacement RNG draw sequences,
 * LRU/FIFO ordering and write-back accounting, at every team width
 * (tests/test_batch_engine.cc enforces this differentially across
 * hierarchy shapes and random forests).
 *
 * Thread safety: a SimGroup is built, run and read by one thread;
 * simulate() fans its own tasks out and joins them before returning.
 * Tasks of one epoch touch disjoint state: the walk owns the L1 tags
 * and one queue half, each replay task its subs, each strict block
 * and generic lane itself.
 */

#ifndef TLC_CACHE_SIM_GROUP_HH
#define TLC_CACHE_SIM_GROUP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/params.hh"
#include "cache/simd_lanes.hh"
#include "cache/two_level.hh"
#include "trace/record.hh"

namespace tlc {

/**
 * A group of independent cache hierarchies simulated in one trace
 * pass. Add lanes, then drive records through simulate(); stats are
 * read back per lane by the index add*() returned.
 */
class SimGroup
{
  public:
    /**
     * Add a split-L1-only system (SingleLevelHierarchy semantics).
     * Uses the flat fast path when the L1 is direct-mapped.
     * @return the new lane's index.
     */
    std::size_t addSingleLevel(const CacheParams &l1_params,
                               std::uint64_t seed = 1);

    /**
     * Add a two-level system (TwoLevelHierarchy semantics). Every
     * policy uses the flat fast path over a direct-mapped L1 whose
     * line size matches the L2's: inclusive and exclusive lanes join
     * a SharedL1Group, strict-inclusive lanes a StrictLaneBlock.
     * Other shapes, and lanes added after records have run, take the
     * generic path.
     * @return the new lane's index.
     */
    std::size_t addTwoLevel(const CacheParams &l1_params,
                            const CacheParams &l2_params,
                            TwoLevelPolicy policy, std::uint64_t seed = 1);

    /**
     * Add an arbitrary hierarchy (victim cache, stream buffer, ...)
     * as a generic lane. @return the new lane's index.
     */
    std::size_t addHierarchy(std::unique_ptr<Hierarchy> h);

    std::size_t laneCount() const { return lanes_.size(); }

    /** Lanes on the structure-of-arrays fast path (for metrics). */
    std::size_t flatLaneCount() const;

    /** Does @p lane run on the flat fast path? */
    bool laneIsFlat(std::size_t lane) const;

    /**
     * Drive @p n records through every lane: the first
     * @p warmup_refs (clamped to @p n) warm the lanes, then the
     * statistics are zeroed and cover the rest — Hierarchy::simulate's
     * contract, for all lanes in one pipelined pass (see the file
     * comment).
     */
    void simulate(const TraceRecord *recs, std::size_t n,
                  std::size_t warmup_refs);

    /** L1 tag words the forest walks have read so far. */
    std::uint64_t l1TagProbes() const { return tagProbes_; }

    /** Statistics of one lane. */
    const HierarchyStats &stats(std::size_t lane) const;

  private:
    enum class LaneKind : std::uint8_t {
        SharedSingle,    ///< L1-only member of a SharedL1Group
        SharedSub,       ///< plain-inclusive member of a SharedL1Group
        SharedExclusive, ///< exclusive member of a SharedL1Group
        Strict,          ///< lane inside a StrictLaneBlock
        Generic
    };
    struct LaneRef
    {
        LaneKind kind;
        std::uint32_t index;   ///< group/block/hierarchy index
        std::uint32_t sub = 0; ///< sub in group / lane in block
    };

    /** Group with a matching L1 geometry, created on first use. */
    lanes::SharedL1Group &sharedGroupFor(const CacheParams &l1_params);

    /**
     * Strict block with a matching L1 geometry and a free lane slot,
     * created on first use or when every match is full.
     */
    std::uint32_t strictBlockFor(const CacheParams &l1_params);

    struct Task;

    /** Zero every lane's statistics, keeping cache contents. */
    void resetStats();

    /** Regroup the shared groups into one forest per line size. */
    void buildForests();

    /** Append the tasks that consume walked epoch @p buf on a team of
     *  @p team workers to @p out: generic lanes, strict blocks, then
     *  replays, costliest first. */
    void consumeTasks(unsigned buf, std::size_t team,
                      std::vector<Task> &out) const;

    /** Add walked epoch @p buf of @p records records to the stats of
     *  every forest member. */
    void foldWalk(unsigned buf, std::size_t records);

    std::vector<LaneRef> lanes_;
    std::vector<lanes::SharedL1Group> sharedGroups_;
    std::vector<lanes::L1Forest> forests_;
    std::vector<lanes::StrictLaneBlock> strictBlocks_;
    std::vector<std::unique_ptr<Hierarchy>> genericLanes_;
    std::uint64_t tagProbes_ = 0;
    /**
     * Set once records have been driven; flat lanes added after that
     * point fall back to the generic path, because they would join a
     * shared L1 that is no longer cold, or re-stride a
     * StrictLaneBlock's tag state that is no longer zero.
     */
    bool accessed_ = false;
};

} // namespace tlc

#endif // TLC_CACHE_SIM_GROUP_HH
