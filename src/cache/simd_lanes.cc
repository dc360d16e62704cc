/**
 * @file
 * Backend-neutral half of the data-oriented lane layer: state
 * construction, the scalar reference FlatCache methods, the LRU/FIFO
 * FSM table builder, and the runtime kernel dispatch.
 */

#include "simd_lanes.hh"

#include <algorithm>
#include <array>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace tlc {
namespace lanes {

// Kernel tables exported by the per-backend TUs. The scalar set is
// always present; the vector sets exist exactly when the matching
// TLC_SIMD_HAVE_* macro is defined for the whole build (CMake sets it
// globally, so this TU and the kernel TU always agree).
namespace scalar_kernels {
extern const LaneKernels kKernels;
}
#if defined(TLC_SIMD_HAVE_AVX2)
namespace avx2_kernels {
extern const LaneKernels kKernels;
}
#endif

// ---------------------------------------------------------------------
// LruFsm
// ---------------------------------------------------------------------

namespace {

/**
 * Build the recency-permutation FSM for one associativity. States are
 * the lexicographic ranks of all permutations of [0, ways); the
 * permutation lists ways most-recent-first.
 */
LruFsm
buildLruFsm(std::uint32_t ways)
{
    LruFsm fsm;
    fsm.ways = ways;
    fsm.states = 1;
    for (std::uint32_t w = 2; w <= ways; ++w)
        fsm.states *= w;

    // Enumerate permutations in lexicographic order; rank == state id.
    std::array<std::uint8_t, kLruFsmMaxWays> perm{};
    for (std::uint32_t w = 0; w < ways; ++w)
        perm[w] = static_cast<std::uint8_t>(w);

    std::vector<std::array<std::uint8_t, kLruFsmMaxWays>> perms;
    perms.reserve(fsm.states);
    do {
        perms.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.begin() + ways));
    tlc_assert(perms.size() == fsm.states, "permutation count mismatch");

    auto rankOf = [&](const std::array<std::uint8_t, kLruFsmMaxWays> &p) {
        for (std::uint32_t s = 0; s < fsm.states; ++s) {
            if (std::equal(p.begin(), p.begin() + ways, perms[s].begin()))
                return s;
        }
        panic("permutation not found");
    };

    fsm.next.resize(static_cast<std::size_t>(fsm.states) * ways);
    fsm.victim.resize(fsm.states);
    for (std::uint32_t s = 0; s < fsm.states; ++s) {
        fsm.victim[s] = perms[s][ways - 1];
        for (std::uint32_t way = 0; way < ways; ++way) {
            // Move `way` to the MRU front, preserving the rest.
            std::array<std::uint8_t, kLruFsmMaxWays> moved{};
            moved[0] = static_cast<std::uint8_t>(way);
            std::uint32_t out = 1;
            for (std::uint32_t i = 0; i < ways; ++i) {
                if (perms[s][i] != way)
                    moved[out++] = perms[s][i];
            }
            fsm.next[static_cast<std::size_t>(s) * ways + way] =
                static_cast<std::uint8_t>(rankOf(moved));
        }
    }
    return fsm;
}

} // namespace

const LruFsm *
lruFsmForWays(std::uint32_t ways)
{
    if (ways < 2 || ways > kLruFsmMaxWays)
        return nullptr;
    static const LruFsm tables[] = {
        buildLruFsm(2),
        buildLruFsm(3),
        buildLruFsm(4),
    };
    static_assert(kLruFsmMaxWays == 4,
                  "table array above covers ways 2..kLruFsmMaxWays");
    return &tables[ways - 2];
}

// ---------------------------------------------------------------------
// FlatCache
// ---------------------------------------------------------------------

FlatCache::FlatCache(const CacheParams &p, std::uint64_t seed)
    : rng(seed, 0xcac4e) // Cache's stream id, for identical draws
{
    p.validate();
    lineShift = log2i(p.lineBytes);
    ways = p.ways();
    std::uint64_t sets = p.numSets();
    setMask = static_cast<std::uint32_t>(sets - 1);
    repl = p.repl;
    entries.resize(sets * ways);
    if (repl != ReplPolicy::Random) {
        fsm = lruFsmForWays(ways);
        if (fsm != nullptr)
            fsmState.resize(sets); // state 0: identity permutation
        else
            stamps.resize(sets * ways);
    }
}

int
FlatCache::findWay(std::uint32_t set, std::uint32_t line) const
{
    std::size_t base = static_cast<std::size_t>(set) * ways;
    std::uint64_t want = (static_cast<std::uint64_t>(line) << 2) | kValid;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if ((entries[base + w] & ~kDirty) == want)
            return static_cast<int>(w);
    }
    return -1;
}

bool
FlatCache::lookupAndTouch(std::uint32_t addr)
{
    std::uint32_t line = addr >> lineShift;
    std::uint32_t set = line & setMask;
    int way = findWay(set, line);
    if (way < 0)
        return false;
    if (repl == ReplPolicy::LRU) {
        if (fsm != nullptr)
            fsmState[set] = fsm->next[fsmState[set] * ways + way];
        else
            stamps[static_cast<std::size_t>(set) * ways + way] = ++tick;
    }
    return true;
}

bool
FlatCache::touchDirtyIfResident(std::uint32_t addr)
{
    std::uint32_t line = addr >> lineShift;
    std::uint32_t set = line & setMask;
    int way = findWay(set, line);
    if (way < 0)
        return false;
    entries[static_cast<std::size_t>(set) * ways + way] |= kDirty;
    return true;
}

std::uint32_t
FlatCache::chooseVictimWay(std::uint32_t set)
{
    std::size_t base = static_cast<std::size_t>(set) * ways;
    // Prefer an invalid way (same scan order as Cache).
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (!(entries[base + w] & kValid))
            return w;
    }
    switch (repl) {
      case ReplPolicy::Random:
        return rng.nextBounded(ways);
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO: {
        if (fsm != nullptr)
            return fsm->victim[fsmState[set]];
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways; ++w) {
            if (stamps[base + w] < stamps[base + victim])
                victim = w;
        }
        return victim;
      }
    }
    panic("unreachable replacement policy");
}

FlatCache::Victim
FlatCache::fill(std::uint32_t addr)
{
    std::uint32_t line = addr >> lineShift;
    std::uint32_t set = line & setMask;
    std::uint32_t way = chooseVictimWay(set);
    std::size_t slot = static_cast<std::size_t>(set) * ways + way;
    Victim v;
    std::uint64_t e = entries[slot];
    if (e & kValid) {
        v.valid = true;
        v.lineAddr = static_cast<std::uint32_t>(e >> 2);
        v.dirty = (e & kDirty) != 0;
    }
    entries[slot] = (static_cast<std::uint64_t>(line) << 2) | kValid;
    if (repl != ReplPolicy::Random) {
        // Unobservable under Random: skipped. LRU and FIFO both
        // promote the filled way to most-recent.
        if (fsm != nullptr)
            fsmState[set] = fsm->next[fsmState[set] * ways + way];
        else
            stamps[slot] = ++tick;
    }
    return v;
}

// ---------------------------------------------------------------------
// SharedL1Group / StrictLaneBlock
// ---------------------------------------------------------------------

SharedL1Group::SharedL1Group(const CacheParams &p) : l1Params(p)
{
    p.validate();
    tlc_assert(p.ways() == 1,
               "SharedL1Group requires a direct-mapped L1");
    std::uint64_t sets = p.numSets();
    lineShift = log2i(p.lineBytes);
    setMask = static_cast<std::uint32_t>(sets - 1);
    l1Entries.resize(sets * 2); // zero entries carry no kValid bit
}

StrictLaneBlock::StrictLaneBlock(const CacheParams &p) : l1Params(p)
{
    p.validate();
    tlc_assert(p.ways() == 1,
               "StrictLaneBlock requires a direct-mapped L1");
    lineShift = log2i(p.lineBytes);
    setMask = static_cast<std::uint32_t>(p.numSets() - 1);
}

std::uint32_t
StrictLaneBlock::addLane(const CacheParams &l2_params, std::uint64_t seed)
{
    tlc_assert(width() < kMaxBlockLanes, "StrictLaneBlock is full");
    l2s.emplace_back(l2_params, seed);
    stats.emplace_back();
    // Re-stride the interleaved tag array for the new width. All
    // words are still zero (lanes are only added before the first
    // record), so resizing is the whole job.
    std::uint64_t sets = l1Params.numSets();
    l1Entries.assign(sets * 2 * width(), 0);
    return width() - 1;
}

// ---------------------------------------------------------------------
// L1Forest walk
// ---------------------------------------------------------------------

void
walkForest(L1Forest &f, const TraceRecord *recs, std::size_t n,
           unsigned buf)
{
    // Geometry, queue cursors and counters live in locals for the
    // duration of the loop: stores to the tag words could alias the
    // group fields as far as the compiler knows.
    struct Level
    {
        std::uint64_t *entries;
        std::uint32_t setMask;
        L1Miss *queue; ///< null for a level without subs
        std::size_t queued;
        std::uint64_t imiss, dmiss, dirtyVictims;
    };
    // Distinct power-of-two set counts of 32-bit line numbers.
    constexpr std::size_t kMaxLevels = 33;
    const std::size_t nl = f.levels.size();
    tlc_assert(nl <= kMaxLevels, "forest of %zu levels", nl);
    Level lv[kMaxLevels];
    for (std::size_t l = 0; l < nl; ++l) {
        SharedL1Group &g = *f.levels[l];
        MissQueue &queue = g.epochs[buf].queue;
        tlc_assert(!g.hasSubs() || queue.capacity() >= n,
                   "epoch of %zu records overflows a miss queue of %zu",
                   n, queue.capacity());
        lv[l] = {g.l1Entries.data(), g.setMask,
                 g.hasSubs() ? queue.data() : nullptr, 0, 0, 0, 0};
    }
    constexpr std::uint64_t kDirtyVictim = kValid | kDirty;

    const std::uint32_t line_shift = f.lineShift;
    std::uint64_t instr = 0, probes = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = recs[i];
        const bool is_instr = r.type == RefType::Instr;
        const std::uint64_t sd = r.type == RefType::Store ? kDirty : 0;
        const std::size_t ibit = is_instr ? 0 : 1;
        instr += is_instr;
        const std::uint32_t line = r.addr >> line_shift;
        const std::uint64_t want =
            (static_cast<std::uint64_t>(line) << 2) | kValid;

        std::size_t l = 0;
        for (; l < nl; ++l) {
            Level &v = lv[l];
            const std::size_t idx =
                (static_cast<std::size_t>(line & v.setMask) << 1) | ibit;
            const std::uint64_t e = v.entries[idx];
            if ((e & ~kDirty) == want) {
                // Every larger level holds the line too; only this
                // one records the store (see walkForest's contract).
                if (sd)
                    v.entries[idx] = e | kDirty;
                break;
            }
            v.imiss += is_instr;
            v.dmiss += !is_instr;
            const std::uint32_t victim_line =
                static_cast<std::uint32_t>(e >> 2);
            const std::uint32_t victim_flags =
                static_cast<std::uint32_t>(e & kDirtyVictim);
            v.entries[idx] = want | sd;
            if (victim_flags == kDirtyVictim) {
                ++v.dirtyVictims;
                if (l + 1 < nl) {
                    Level &up = lv[l + 1];
                    up.entries[(static_cast<std::size_t>(
                                    victim_line & up.setMask)
                                << 1) |
                               ibit] |= kDirty;
                }
            }
            if (v.queue)
                v.queue[v.queued++] = {line, victim_line, victim_flags};
        }
        probes += l < nl ? l + 1 : nl;
    }

    for (std::size_t l = 0; l < nl; ++l) {
        SharedL1Group::Epoch &ep = f.levels[l]->epochs[buf];
        ep.misses = lv[l].queued;
        ep.imiss = lv[l].imiss;
        ep.dmiss = lv[l].dmiss;
        ep.dirtyVictims = lv[l].dirtyVictims;
    }
    f.instrRefs[buf] = instr;
    f.tagProbes += probes;
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

const LaneKernels &
laneKernelsFor(SimdBackend backend)
{
    switch (backend) {
      case SimdBackend::Scalar:
        return scalar_kernels::kKernels;
      case SimdBackend::Avx2:
#if defined(TLC_SIMD_HAVE_AVX2)
        return avx2_kernels::kKernels;
#else
        break;
#endif
    }
    panic("laneKernelsFor: backend '%s' not compiled into this binary",
          simdBackendName(backend));
}

} // namespace lanes
} // namespace tlc
