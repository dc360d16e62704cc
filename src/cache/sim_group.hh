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
 * to every registered lane, block by block, so the trace data
 * streams through the L1 of the *host* once per block instead of
 * once per configuration.
 *
 * SimGroup itself is the grouping layer: it decides which lanes can
 * share simulated state and which structure-of-arrays flavour each
 * one runs on. The lane layouts and their vectorized kernels live in
 * cache/simd_lanes.hh (dispatched at runtime over the SIMD backends
 * compiled into the binary — scalar always, AVX2 on x86-64 — forced
 * with TLC_SIMD or setSimdBackend()):
 *
 *  - SharedL1Group — all lanes over one direct-mapped L1 geometry
 *    whose L2 side never reaches back into the L1: plain-inclusive
 *    two-level lanes (private L2s replayed from a shared miss
 *    queue) and L1-only lanes (bit-identical, one shared stats
 *    block). An L2-capacity sweep over a fixed L1 costs one L1
 *    simulation instead of N.
 *  - StrictLaneBlock — strict-inclusive lanes, which need private
 *    L1s (back-invalidation), interleaved so one vector probe per
 *    record answers every lane's L1 lookup at once.
 *  - Generic lanes wrapping any Hierarchy (exclusive two-level,
 *    victim cache, stream buffer, associative L1s) accessed
 *    record-by-record through the virtual interface.
 *
 * Equivalence contract: every lane produces HierarchyStats
 * byte-identical to running the corresponding Hierarchy alone over
 * the same records — including replacement RNG draw sequences,
 * LRU/FIFO ordering and write-back accounting, on every SIMD
 * backend (tests/test_batch_engine.cc enforces this differentially
 * across every hierarchy shape and backend).
 *
 * Thread safety: none — a SimGroup is built, run and read by one
 * thread. Batched sweeps get their parallelism by giving each worker
 * its own SimGroup over the shared read-only trace.
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
 * pass. Add lanes, then drive records through accessRange(); stats
 * are read back per lane by the index add*() returned.
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
     * Add a two-level system (TwoLevelHierarchy semantics). Uses the
     * flat fast path for inclusive/strict-inclusive policies over a
     * direct-mapped L1; exclusive caching takes the generic path.
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
     * Apply @p n records to every lane. Records are processed in
     * blocks, lane-major within a block, so each lane's tag state
     * stays hot while the block is replayed against it. The flat
     * flavours run through the kernel set of the active SIMD backend
     * (util/simd.hh), resolved per call.
     */
    void accessRange(const TraceRecord *recs, std::size_t n);

    /** Zero every lane's statistics, keeping cache contents. */
    void resetStats();

    /** Statistics of one lane. */
    const HierarchyStats &stats(std::size_t lane) const;

  private:
    enum class LaneKind : std::uint8_t {
        SharedSingle, ///< L1-only member of a SharedL1Group
        SharedSub,    ///< plain-inclusive member of a SharedL1Group
        Strict,       ///< lane inside a StrictLaneBlock
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

    std::vector<LaneRef> lanes_;
    std::vector<lanes::SharedL1Group> sharedGroups_;
    std::vector<lanes::StrictLaneBlock> strictBlocks_;
    std::vector<std::unique_ptr<Hierarchy>> genericLanes_;
    /**
     * Set once records have been driven; strict lanes added after
     * that point fall back to the generic path, because growing a
     * StrictLaneBlock re-strides tag state that is no longer zero.
     */
    bool accessed_ = false;
};

} // namespace tlc

#endif // TLC_CACHE_SIM_GROUP_HH
