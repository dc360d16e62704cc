/**
 * @file
 * Data-oriented lane state for the single-pass batch engine, plus the
 * kernels that run it.
 *
 * SimGroup (cache/sim_group.hh) owns the lane *grouping* decisions;
 * this header owns the lane *layout* and the hot loops. The state is
 * arranged structure-of-arrays so one probe covers many lanes:
 *
 *  - SharedL1Group: every lane sharing one direct-mapped L1 geometry
 *    — plain-inclusive and exclusive two-level lanes AND L1-only
 *    lanes — runs through ONE simulated L1. L1-only members are
 *    bit-identical to each other (a direct-mapped cache has no
 *    replacement state), so they share a single stats block.
 *    Two-level members differ only below the L1: neither policy ever
 *    moves L2 state into the L1 (an exclusive swap refills the L1
 *    with dirty = is_store, and the L2 copy keeps its own dirty bit),
 *    so the L1's contents are a pure function of the trace.
 *
 *  - L1Forest: every SharedL1Group of one line size, walked together.
 *    Direct-mapped L1s of one line size obey set-refinement inclusion,
 *    so one walk probes them smallest first, stops at the first hit,
 *    and records each level's misses (line, victim line, victim
 *    valid/dirty flags) in that level's queue for one epoch of
 *    records. The queues are replayed per member L2, sub-major: each
 *    L2's tag state stays hot across a whole epoch of misses.
 *    Inclusive and exclusive members sit in separate lists, each
 *    replayed by its own instantiation of the loop. Replaying in
 *    record order per sub keeps every member's operation (and RNG
 *    draw) sequence identical to a solo run — subs are independent,
 *    so inter-sub order is unobservable, and disjoint sub ranges may
 *    replay on different threads.
 *
 *  - StrictLaneBlock: strict-inclusive lanes back-invalidate their L1
 *    on L2 eviction, so each needs a *private* L1 — but lanes with the
 *    same L1 geometry still probe the same (set, I/D) slot for every
 *    record. The block interleaves up to kMaxBlockLanes lanes' L1 tag
 *    words per slot (entries[slot * width + lane]), and one branchless
 *    probe over the row answers "which lanes missed?" as a bitmask;
 *    only the missing lanes fall into the per-lane L2 path.
 *
 *  - FlatCache: the flat replica of Cache used for member L2s, with
 *    precomputed LRU/FIFO FSM transition tables (permutation-coded
 *    recency state, one table lookup per touch or fill instead of a
 *    stamp array scan) for 2..kLruFsmMaxWays ways.
 *
 * The kernels (walkForest, replay, runStrict) are plain scalar C++ in
 * simd_lanes.cc. The equivalence contract is sim_group.hh's: every
 * lane's HierarchyStats must be byte-identical to a solo Hierarchy
 * run, including RNG victim draw sequences (tests/test_batch_engine.cc
 * enforces this differentially).
 */

#ifndef TLC_CACHE_SIMD_LANES_HH
#define TLC_CACHE_SIMD_LANES_HH

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define TLC_TAG_ALLOC_HAVE_MMAP 1
#endif

#include "cache/hierarchy.hh"
#include "cache/params.hh"
#include "trace/record.hh"
#include "util/random.hh"

namespace tlc {
namespace lanes {

/** Packed tag-word flag bits: entry = (line << 2) | flags. */
constexpr std::uint64_t kValid = 1;
constexpr std::uint64_t kDirty = 2;

/**
 * Allocator for packed tag arrays, tuned two ways:
 *
 *  - Alignment: a 4-way set's row is 32 bytes, so a merely
 *    16-byte-aligned allocation would make half the rows straddle
 *    two host cache lines and cost the probe loop a second load.
 *    Every path here returns at least 64-byte-aligned memory.
 *
 *  - Lazy zeroing: every fresh allocation arrives already zero (all
 *    tag words invalid), and the default-construct hook is a no-op,
 *    so sizing a big L2's tag array (megabytes for the large design
 *    points) does not touch its pages up front — large arrays come
 *    straight from anonymous mmap and fault in zero-filled only for
 *    the sets the trace actually reaches. Sizing whole sweep grids
 *    was measurably memset-bound before this.
 *
 * The zero-on-arrival contract holds only for FRESH allocations;
 * growing a vector inside existing capacity would expose stale
 * bytes. The tag-array owners below only ever size their vectors
 * once from empty (StrictLaneBlock's re-stride uses assign(), an
 * explicit value-fill), which is exactly the pattern this supports.
 */
template <typename T>
struct TagAllocator
{
    using value_type = T;
    static constexpr std::size_t kAlign = 64;
    /** Allocations at least this big come from anonymous mmap. */
    static constexpr std::size_t kMmapBytes = std::size_t{1} << 20;
    /** mmap allocations are 2 MiB-aligned and MADV_HUGEPAGE'd: a
     *  random-probed multi-megabyte tag array on 4 KiB pages is
     *  TLB-miss-bound, and faulting it in page by page costs more
     *  than the memset this allocator avoids. */
    static constexpr std::size_t kHugeBytes = std::size_t{2} << 20;

    TagAllocator() = default;
    template <typename U>
    TagAllocator(const TagAllocator<U> &) // NOLINT(runtime/explicit)
    {
    }

    T *allocate(std::size_t n)
    {
        std::size_t bytes = n * sizeof(T);
#if defined(TLC_TAG_ALLOC_HAVE_MMAP)
        if (bytes >= kMmapBytes) {
            // Over-map by one huge page, then trim to a 2 MiB-aligned
            // block of the rounded length — deallocate() recomputes
            // the same rounded length from n.
            std::size_t len = roundToHuge(bytes);
            void *raw =
                ::mmap(nullptr, len + kHugeBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (raw == MAP_FAILED)
                throw std::bad_alloc();
            std::uintptr_t base = reinterpret_cast<std::uintptr_t>(raw);
            std::uintptr_t aligned =
                (base + kHugeBytes - 1) & ~(kHugeBytes - 1);
            if (aligned != base)
                ::munmap(raw, aligned - base);
            std::uintptr_t end = base + len + kHugeBytes;
            if (end != aligned + len)
                ::munmap(reinterpret_cast<void *>(aligned + len),
                         end - (aligned + len));
#if defined(MADV_HUGEPAGE)
            ::madvise(reinterpret_cast<void *>(aligned), len,
                      MADV_HUGEPAGE);
#endif
            return reinterpret_cast<T *>(aligned);
        }
#endif
        void *p = ::operator new(bytes, std::align_val_t{kAlign});
        std::memset(p, 0, bytes);
        return static_cast<T *>(p);
    }
    void deallocate(T *p, std::size_t n)
    {
        std::size_t bytes = n * sizeof(T);
#if defined(TLC_TAG_ALLOC_HAVE_MMAP)
        if (bytes >= kMmapBytes) {
            ::munmap(p, roundToHuge(bytes));
            return;
        }
#endif
        ::operator delete(p, bytes, std::align_val_t{kAlign});
    }

    static constexpr std::size_t roundToHuge(std::size_t bytes)
    {
        return (bytes + kHugeBytes - 1) & ~(kHugeBytes - 1);
    }

    /** Default construction is a no-op: fresh memory is already
     *  zero, and touching it would defeat the lazy mmap path. */
    template <typename U>
    void construct(U *) noexcept
    {
    }
    template <typename U, typename... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    bool operator==(const TagAllocator &) const { return true; }
};

/** Cache-line-aligned storage for packed tag words. */
using TagVector = std::vector<std::uint64_t, TagAllocator<std::uint64_t>>;

/** Widest set-associativity covered by the LRU/FIFO FSM tables. */
constexpr std::uint32_t kLruFsmMaxWays = 4;

/**
 * Precomputed recency-permutation FSM for one associativity, in the
 * style of cavatools' lru_fsm_Nway tables. A state encodes the ways
 * of one set ordered most-recent-first; next[state * ways + way]
 * moves @p way to the front, victim[state] is the back of the
 * ordering. LRU transitions on every touch and fill; FIFO transitions
 * on fill only — the same tables serve both, callers choose when to
 * step. Equivalent to the stamp-array argmin it replaces: the victim
 * is only ever consulted once every way holds a valid line, by which
 * point every way has been filled at least once, so the permutation
 * is fully determined by the same touch/fill history the stamps
 * recorded (stamps are unique and monotone, making argmin exactly
 * the least-recently-moved way).
 */
struct LruFsm
{
    std::uint32_t ways = 0;
    std::uint32_t states = 0;          ///< ways!
    std::vector<std::uint8_t> next;    ///< [state * ways + way]
    std::vector<std::uint8_t> victim;  ///< [state]
};

/**
 * The FSM table for @p ways, built once per process; nullptr when
 * @p ways is 1 (no replacement state to track) or beyond
 * kLruFsmMaxWays (stamp arrays remain the fallback).
 */
const LruFsm *lruFsmForWays(std::uint32_t ways);

/**
 * Flat replica of Cache used for member L2s: same victim-selection
 * order (invalid scan, then policy), same Pcg32 stream, same LRU/FIFO
 * ordering — so the stats it produces match a real Cache draw for
 * draw. Entries pack (line << 2) | flags, [set][way] row-major.
 * Replacement state is, in preference order: nothing under Random
 * (unobservable), the FSM state byte per set when the associativity
 * has a table, else the stamp array. The kernels in simd_lanes.cc
 * operate on this state directly.
 */
struct FlatCache
{
    std::uint32_t lineShift = 0;
    std::uint32_t ways = 1;
    std::uint32_t setMask = 0;
    ReplPolicy repl = ReplPolicy::Random;
    const LruFsm *fsm = nullptr;        ///< non-null: fsmState in use
    TagVector entries;                  ///< (line << 2) | flags
    std::vector<std::uint64_t> stamps;  ///< LRU/FIFO fallback ordering
    std::vector<std::uint8_t> fsmState; ///< per-set recency permutation
    std::uint64_t tick = 0;
    Pcg32 rng;

    FlatCache(const CacheParams &p, std::uint64_t seed);
};

/**
 * One L1 miss recorded by a forest walk, replayed against each member
 * L2 of its level in record order.
 */
struct L1Miss
{
    /** Line numbers, not byte addresses: flat grouping guarantees L1
     *  and every member L2 share one line size (sim_group.cc), so
     *  the walk shifts once and the replay never shifts at all. */
    std::uint32_t line = 0;       ///< the missing reference's line
    std::uint32_t victimLine = 0; ///< evicted L1 line
    /** kValid | kDirty of the evicted tag word: exclusive members
     *  also move clean victims into their L2. */
    std::uint32_t victimFlags = 0;
};

/**
 * A fixed-capacity array of L1 misses whose pages are mapped on first
 * write. An epoch's queue must hold one entry per record in the worst
 * case, but a level misses on a few percent of its records, so the
 * worst case costs address space and the misses cost memory.
 */
class MissQueue
{
  public:
    MissQueue() = default;
    MissQueue(const MissQueue &) = delete;
    MissQueue &operator=(const MissQueue &) = delete;
    MissQueue(MissQueue &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          capacity_(std::exchange(o.capacity_, 0))
    {
    }
    MissQueue &operator=(MissQueue &&o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(capacity_, o.capacity_);
        return *this;
    }
    ~MissQueue() { release(); }

    /** Make room for @p n entries; the contents are not kept. */
    void reserve(std::size_t n)
    {
        if (n <= capacity_)
            return;
        release();
#if defined(TLC_TAG_ALLOC_HAVE_MMAP)
        void *p = ::mmap(nullptr, n * sizeof(L1Miss),
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<L1Miss *>(p);
#else
        data_ = static_cast<L1Miss *>(::operator new(n * sizeof(L1Miss)));
#endif
        capacity_ = n;
    }

    L1Miss *data() const { return data_; }
    std::size_t capacity() const { return capacity_; }

  private:
    void release()
    {
        if (data_ == nullptr)
            return;
#if defined(TLC_TAG_ALLOC_HAVE_MMAP)
        ::munmap(data_, capacity_ * sizeof(L1Miss));
#else
        ::operator delete(data_);
#endif
        data_ = nullptr;
        capacity_ = 0;
    }

    L1Miss *data_ = nullptr;
    std::size_t capacity_ = 0;
};

/**
 * All lanes over one direct-mapped L1 geometry whose L2 side (if any)
 * never reaches back into the L1: plain-inclusive and exclusive
 * two-level lanes as subs, L1-only lanes as a shared member count.
 * The L1 tag state is split-interleaved ([set*2] = I, [set*2+1] = D)
 * exactly as the solo hierarchies see it. A group is one level of
 * its line size's L1Forest, which walks it.
 */
struct SharedL1Group
{
    CacheParams l1Params; ///< grouping key (sizeBytes, lineBytes)
    std::uint32_t lineShift = 0;
    std::uint32_t setMask = 0;
    TagVector l1Entries;

    /** One two-level member: a private L2 + stats. */
    struct Sub
    {
        FlatCache l2;
        HierarchyStats stats;

        Sub(const CacheParams &l2_params, std::uint64_t seed)
            : l2(l2_params, seed)
        {
        }
    };
    std::vector<Sub> subs;          ///< plain-inclusive members
    std::vector<Sub> exclusiveSubs; ///< exclusive members

    /**
     * L1-only members. Same geometry + no replacement state means
     * they are bit-identical, so one stats block serves all of them
     * (l2Misses counts the off-chip fetches, as SingleLevelHierarchy
     * reports them).
     */
    std::size_t singleMembers = 0;
    HierarchyStats singleStats;

    /** What one walk of one epoch left for this level: the misses
     *  its subs replay and the counts every member adds up. */
    struct Epoch
    {
        MissQueue queue;        ///< filled only when subs exist
        std::size_t misses = 0; ///< entries in queue
        std::uint64_t imiss = 0;
        std::uint64_t dmiss = 0;
        std::uint64_t dirtyVictims = 0;
    };
    /** Double buffer: the walk fills one while the subs replay the
     *  other (SimGroup::simulate). */
    Epoch epochs[2];

    explicit SharedL1Group(const CacheParams &p);

    bool hasSubs() const { return !subs.empty() || !exclusiveSubs.empty(); }
};

/**
 * Every SharedL1Group of one line size, smallest first. With one line
 * size and bit-selection indexing, a direct-mapped cache of 2^k sets
 * holds a subset of what any larger one holds (set-refinement
 * inclusion: Hill & Smith, IEEE TC 1989), so a reference that hits
 * one level hits every larger one, and a single walk that stops at
 * the first hit serves every size.
 */
struct L1Forest
{
    std::uint32_t lineShift = 0;
    std::vector<SharedL1Group *> levels; ///< ascending set count
    std::uint64_t instrRefs[2] = {};     ///< per epoch buffer
    /** L1 tag words read by every walk so far. */
    std::uint64_t tagProbes = 0;
};

/**
 * Walk @p n records through every level of @p f into epoch buffer
 * @p buf. Each record probes the levels smallest first and stops at
 * the first hit. A store that hits dirties only the level it hit; a
 * level that evicts a dirty victim ORs kDirty into the victim's tag
 * word one level up, which inclusion guarantees holds the line. A
 * line's dirty bit at one level is therefore the OR over the levels
 * at and below it that hold the line, which is what a solo walk of
 * that level would hold when it evicts the line — so every level gets
 * exactly its solo walk's misses, victims and counts.
 */
void walkForest(L1Forest &f, const TraceRecord *recs, std::size_t n,
                unsigned buf);

/** Widest sub interleave one replay pass covers (replaySubs). */
constexpr std::size_t kReplayInterleave = 8;

/**
 * Up to kMaxBlockLanes strict-inclusive lanes sharing one
 * direct-mapped L1 geometry and line size, their L1 tag words
 * interleaved per (set, I/D) slot: l1Entries[slot * width() + lane].
 * One probe over a slot's row yields the miss bitmask for all lanes
 * at once; L2 state and stats stay per lane.
 */
struct StrictLaneBlock
{
    /** Row width cap — miss masks are single 64-bit words. */
    static constexpr std::uint32_t kMaxBlockLanes = 64;

    CacheParams l1Params; ///< grouping key (sizeBytes, lineBytes)
    std::uint32_t lineShift = 0;
    std::uint32_t setMask = 0;
    TagVector l1Entries;                  ///< [slot * width() + lane]
    std::vector<FlatCache> l2s;           ///< per lane
    std::vector<HierarchyStats> stats;    ///< per lane

    explicit StrictLaneBlock(const CacheParams &p);

    std::uint32_t width() const
    {
        return static_cast<std::uint32_t>(l2s.size());
    }

    /**
     * Append a lane. Must happen before any records are driven: the
     * interleaved layout is re-strided on growth, which is only
     * equivalent while every tag word is still zero (SimGroup
     * enforces this).
     */
    std::uint32_t addLane(const CacheParams &l2_params,
                          std::uint64_t seed);
};

/**
 * Replay walked epoch @p buf of @p g over its subs [lo, hi) of one
 * policy, at most kReplayInterleave of them per pass, accumulating
 * stats exactly as the solo hierarchies would.
 */
void replay(SharedL1Group &g, bool exclusive, std::size_t lo,
            std::size_t hi, unsigned buf);

/** Apply @p n records to one interleaved strict block, accumulating
 *  stats exactly as the solo hierarchies would. */
void runStrict(StrictLaneBlock &b, const TraceRecord *recs, std::size_t n);

} // namespace lanes
} // namespace tlc

#endif // TLC_CACHE_SIMD_LANES_HH
