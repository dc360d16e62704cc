/**
 * @file
 * The data-oriented lane layer: state construction, the LRU/FIFO FSM
 * table builder, the L1 forest walk, and the L2 replay and strict
 * kernels.
 */

#include "simd_lanes.hh"

#include <algorithm>
#include <array>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace tlc {
namespace lanes {

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
// L2 replay and strict kernels
// ---------------------------------------------------------------------

namespace {

/** Bit i set iff (p[i] & ~ignore) == want, for i in [0, n), n <= 64. */
inline std::uint64_t
eqMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t want,
       std::uint64_t ignore)
{
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & ~ignore) == want) << i;
    return mask;
}

/** Bit i set iff (p[i] & bit) == 0, for i in [0, n), n <= 64. */
inline std::uint64_t
zeroMask(const std::uint64_t *p, std::uint32_t n, std::uint64_t bit)
{
    std::uint64_t mask = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        mask |= static_cast<std::uint64_t>((p[i] & bit) == 0) << i;
    return mask;
}

/**
 * The strict-lane probe over one interleaved row of n <= 64 tag
 * words: lane i hits iff (row[i] & ~dirtyBit) == want; hits get
 * row[i] |= orOnHit, misses are left untouched. Returns the miss
 * bitmask over [0, n).
 */
inline std::uint64_t
probeRow(std::uint64_t *row, std::uint32_t n, std::uint64_t want,
         std::uint64_t dirtyBit, std::uint64_t orOnHit)
{
    std::uint64_t miss = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t e = row[i];
        // Branchless: hits pick up orOnHit, misses are rewritten with
        // their own value (a no-op the compiler turns into a cmov'd
        // store or masked blend).
        bool hit = (e & ~dirtyBit) == want;
        row[i] = hit ? (e | orOnHit) : e;
        miss |= static_cast<std::uint64_t>(!hit) << i;
    }
    return miss;
}

/** First way holding (line, valid), dirty ignored; -1 if absent. */
inline int
findWayK(const FlatCache &c, std::uint32_t set, std::uint32_t line)
{
    const std::uint64_t *base =
        c.entries.data() + static_cast<std::size_t>(set) * c.ways;
    const std::uint64_t want =
        (static_cast<std::uint64_t>(line) << 2) | kValid;
    std::uint32_t w = 0;
    for (; w + 64 <= c.ways; w += 64) {
        std::uint64_t m = eqMask(base + w, 64, want, kDirty);
        if (m)
            return static_cast<int>(w + __builtin_ctzll(m));
    }
    if (w < c.ways) {
        std::uint64_t m = eqMask(base + w, c.ways - w, want, kDirty);
        if (m)
            return static_cast<int>(w + __builtin_ctzll(m));
    }
    return -1;
}

/** Dirty @p line if it is resident; false if it is not. */
inline bool
touchDirtyLineK(FlatCache &c, std::uint32_t line)
{
    std::uint32_t set = line & c.setMask;
    int way = findWayK(c, set, line);
    if (way < 0)
        return false;
    c.entries[static_cast<std::size_t>(set) * c.ways + way] |= kDirty;
    return true;
}

inline std::uint32_t
chooseVictimWayK(FlatCache &c, std::uint32_t set)
{
    const std::uint64_t *base =
        c.entries.data() + static_cast<std::size_t>(set) * c.ways;
    // Prefer an invalid way (same scan order as Cache).
    std::uint32_t w = 0;
    for (; w + 64 <= c.ways; w += 64) {
        std::uint64_t m = zeroMask(base + w, 64, kValid);
        if (m)
            return w + static_cast<std::uint32_t>(__builtin_ctzll(m));
    }
    if (w < c.ways) {
        std::uint64_t m = zeroMask(base + w, c.ways - w, kValid);
        if (m)
            return w + static_cast<std::uint32_t>(__builtin_ctzll(m));
    }
    switch (c.repl) {
      case ReplPolicy::Random:
        return c.rng.nextBounded(c.ways);
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO: {
        if (c.fsm != nullptr)
            return c.fsm->victim[c.fsmState[set]];
        std::size_t sbase = static_cast<std::size_t>(set) * c.ways;
        std::uint32_t victim = 0;
        for (std::uint32_t i = 1; i < c.ways; ++i) {
            if (c.stamps[sbase + i] < c.stamps[sbase + victim])
                victim = i;
        }
        return victim;
      }
    }
    panic("unreachable replacement policy");
}

/** Replacement-state update for a hit on (@p set, @p way): only LRU
 *  keeps hit recency. */
inline void
touchWayK(FlatCache &c, std::uint32_t set, std::uint32_t way)
{
    if (c.repl != ReplPolicy::LRU)
        return;
    if (c.fsm != nullptr)
        c.fsmState[set] = c.fsm->next[c.fsmState[set] * c.ways + way];
    else
        c.stamps[static_cast<std::size_t>(set) * c.ways + way] = ++c.tick;
}

/** Replacement-state update for a line installed at (@p set, @p way):
 *  LRU and FIFO both promote it; Random keeps no state. */
inline void
installWayK(FlatCache &c, std::uint32_t set, std::uint32_t way)
{
    if (c.repl == ReplPolicy::Random)
        return;
    if (c.fsm != nullptr)
        c.fsmState[set] = c.fsm->next[c.fsmState[set] * c.ways + way];
    else
        c.stamps[static_cast<std::size_t>(set) * c.ways + way] = ++c.tick;
}

/**
 * lookupAndTouch + fill fused: one L2 access exactly as the
 * TwoLevelHierarchy performs it on an L1 miss — probe, touch on hit,
 * choose victim and refill on miss — by precomputed line number,
 * with the set/row computed once. Returns true on hit; on miss
 * @p evicted receives the victim's raw tag word (possibly invalid).
 */
inline bool
l2AccessLineK(FlatCache &c, std::uint32_t line, std::uint64_t *evicted)
{
    std::uint32_t set = line & c.setMask;
    int way = findWayK(c, set, line);
    if (way >= 0) {
        touchWayK(c, set, static_cast<std::uint32_t>(way));
        return true;
    }

    std::uint32_t vway = chooseVictimWayK(c, set);
    std::size_t slot = static_cast<std::size_t>(set) * c.ways + vway;
    *evicted = c.entries[slot];
    c.entries[slot] = (static_cast<std::uint64_t>(line) << 2) | kValid;
    installWayK(c, set, vway);
    return false;
}

/** The victim flags of an L1 miss that make an inclusive member
 *  write back into its L2 (or off-chip): a valid, dirty victim. */
constexpr std::uint32_t kDirtyVictim =
    static_cast<std::uint32_t>(kValid | kDirty);

/** One recorded L1 miss applied to one inclusive member L2,
 *  accessInclusive order. Line numbers come precomputed: they are
 *  shared by every sub. */
inline void
replayStep(FlatCache &l2, const L1Miss &m, std::uint64_t &hit,
           std::uint64_t &wb)
{
    if (m.victimFlags == kDirtyVictim && !touchDirtyLineK(l2, m.victimLine))
        ++wb;
    std::uint64_t evicted = 0;
    if (l2AccessLineK(l2, m.line, &evicted)) {
        ++hit;
        return;
    }
    wb += static_cast<std::uint64_t>(
        (evicted & (kValid | kDirty)) == (kValid | kDirty));
}

/**
 * One recorded L1 miss applied to one exclusive member L2, following
 * accessExclusive + Cache::insertLinePreferring operation for
 * operation: probe the L2 (touch on a hit, never fill), then move a
 * valid L1 victim into the L2 — a dirty-bit merge when it is already
 * resident, the hit line's way when the victim maps to the hit's set
 * (the swap: no replacement draw), else the policy's victim way. The
 * install steps replacement state exactly as l2AccessLineK's fill
 * (installWayK).
 */
inline void
exclusiveStep(FlatCache &l2, const L1Miss &m, std::uint64_t &hit,
              std::uint64_t &wb, std::uint64_t &swaps)
{
    const std::uint32_t set = m.line & l2.setMask;
    const int way = findWayK(l2, set, m.line);
    if (way >= 0) {
        ++hit;
        touchWayK(l2, set, static_cast<std::uint32_t>(way));
    }
    if (!(m.victimFlags & kValid))
        return;

    const std::uint32_t vset = m.victimLine & l2.setMask;
    const std::uint64_t vdirty = m.victimFlags & kDirty;
    const std::size_t row = static_cast<std::size_t>(vset) * l2.ways;
    const int resident = findWayK(l2, vset, m.victimLine);
    if (resident >= 0) {
        l2.entries[row + resident] |= vdirty;
        return;
    }
    std::uint32_t vway;
    if (way >= 0 && vset == set) {
        vway = static_cast<std::uint32_t>(way);
        ++swaps;
    } else {
        vway = chooseVictimWayK(l2, vset);
    }
    const std::uint64_t evicted = l2.entries[row + vway];
    l2.entries[row + vway] =
        (static_cast<std::uint64_t>(m.victimLine) << 2) | kValid | vdirty;
    installWayK(l2, vset, vway);
    wb += static_cast<std::uint64_t>(
        (evicted & (kValid | kDirty)) == (kValid | kDirty));
}

/**
 * Replay a block's miss queue against S member L2s of one policy in
 * one pass. The replay is latency-bound: each miss lands on an
 * effectively random set of a tag array bigger than the host L1, and
 * one sub's chain (row load -> compare -> branch) is serial. The
 * subs' state is disjoint, so interleaving S chains lets the
 * out-of-order window overlap their stalls, and upcoming rows are
 * prefetched ahead of the demand loads. The policy is a template
 * parameter so neither step pays for the other's branches. Each
 * width stays out of line: inlined into replay(), the widths
 * measured ~2% slower on the `paper` benchmark.
 */
template <bool Exclusive, std::size_t S>
[[gnu::noinline]] void
replaySubs(SharedL1Group::Sub *subs, const L1Miss *mq, std::size_t mn)
{
    FlatCache *l2[S];
    std::uint64_t hit[S] = {}, wb[S] = {}, swaps[S] = {};
    for (std::size_t s = 0; s < S; ++s)
        l2[s] = &subs[s].l2;
    constexpr std::size_t kPrefetchDist = 8;
    for (std::size_t j = 0; j < mn; ++j) {
        if (j + kPrefetchDist < mn) {
            const L1Miss &pm = mq[j + kPrefetchDist];
            // The victim's row is demanded too: for every valid
            // victim when exclusive, for a dirty one when inclusive.
            const bool victim_row = Exclusive
                ? (pm.victimFlags & kValid) != 0
                : pm.victimFlags == kDirtyVictim;
            for (std::size_t s = 0; s < S; ++s) {
                __builtin_prefetch(
                    l2[s]->entries.data() +
                        static_cast<std::size_t>(pm.line &
                                                 l2[s]->setMask) *
                            l2[s]->ways,
                    1);
                if (victim_row) {
                    __builtin_prefetch(
                        l2[s]->entries.data() +
                            static_cast<std::size_t>(pm.victimLine &
                                                     l2[s]->setMask) *
                                l2[s]->ways,
                        1);
                }
            }
        }
        const L1Miss m = mq[j];
        for (std::size_t s = 0; s < S; ++s) {
            if constexpr (Exclusive)
                exclusiveStep(*l2[s], m, hit[s], wb[s], swaps[s]);
            else
                replayStep(*l2[s], m, hit[s], wb[s]);
        }
    }
    for (std::size_t s = 0; s < S; ++s) {
        // Every replayed miss either hits or misses the L2, so the
        // misses are the queue length minus the hits.
        subs[s].stats.l2Hits += hit[s];
        subs[s].stats.l2Misses += mn - hit[s];
        subs[s].stats.swaps += swaps[s];
        subs[s].stats.offchipWritebacks += wb[s];
    }
}

/** replaySubs over @p w subs: each width is its own instantiation,
 *  since more interleaved chains means more overlapped tag-row
 *  misses. */
template <bool Exclusive>
inline void
replayWidth(SharedL1Group::Sub *sub, std::size_t w, const L1Miss *mq,
            std::size_t mn)
{
    static_assert(kReplayInterleave == 8,
                  "the cases below cover widths 1..kReplayInterleave");
    switch (w) {
      case 8: replaySubs<Exclusive, 8>(sub, mq, mn); break;
      case 7: replaySubs<Exclusive, 7>(sub, mq, mn); break;
      case 6: replaySubs<Exclusive, 6>(sub, mq, mn); break;
      case 5: replaySubs<Exclusive, 5>(sub, mq, mn); break;
      case 4: replaySubs<Exclusive, 4>(sub, mq, mn); break;
      case 3: replaySubs<Exclusive, 3>(sub, mq, mn); break;
      case 2: replaySubs<Exclusive, 2>(sub, mq, mn); break;
      case 1: replaySubs<Exclusive, 1>(sub, mq, mn); break;
      default: panic("replay width %zu", w);
    }
}


} // namespace

/**
 * Replay walked epoch @p buf of @p g over its subs [lo, hi) of one
 * policy, at most kReplayInterleave per pass: each sub still sees the
 * misses strictly in record order, so its operation and RNG sequence
 * is exactly its solo sequence.
 */
void
replay(SharedL1Group &g, bool exclusive, std::size_t lo, std::size_t hi,
       unsigned buf)
{
    const L1Miss *const mq = g.epochs[buf].queue.data();
    const std::size_t mn = g.epochs[buf].misses;
    SharedL1Group::Sub *const sub =
        (exclusive ? g.exclusiveSubs : g.subs).data();
    for (std::size_t si = lo; si < hi; si += kReplayInterleave) {
        const std::size_t w =
            hi - si < kReplayInterleave ? hi - si : kReplayInterleave;
        if (exclusive)
            replayWidth<true>(sub + si, w, mq, mn);
        else
            replayWidth<false>(sub + si, w, mq, mn);
    }
}

/**
 * StrictLaneBlock kernel. One probeRow over the interleaved tag row
 * answers every lane's lookup at once (hit lanes pick up the dirty
 * bit in the same masked store); only the lanes in the miss mask take
 * the scalar per-lane refill / L2 / back-invalidate path, in lane
 * order — each lane's operation sequence (and RNG draws) is exactly
 * its solo sequence.
 */
void
runStrict(StrictLaneBlock &b, const TraceRecord *recs, std::size_t n)
{
    const std::uint32_t w = b.width();
    if (w == 0)
        return;
    const std::uint32_t line_shift = b.lineShift;
    const std::uint32_t set_mask = b.setMask;
    std::uint64_t *const entries = b.l1Entries.data();
    FlatCache *const l2s = b.l2s.data();
    HierarchyStats *const stats = b.stats.data();
    std::uint64_t instr = 0, data = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = recs[i];
        bool is_instr = r.type == RefType::Instr;
        bool is_store = r.type == RefType::Store;
        std::uint32_t line = r.addr >> line_shift;
        std::uint32_t set = line & set_mask;
        std::size_t slot =
            (static_cast<std::size_t>(set) << 1) | (is_instr ? 0 : 1);
        std::uint64_t *const row = entries + slot * w;

        instr += is_instr;
        data += !is_instr;

        std::uint64_t want =
            (static_cast<std::uint64_t>(line) << 2) | kValid;
        std::uint64_t miss_mask =
            probeRow(row, w, want, kDirty, is_store ? kDirty : 0);

        while (miss_mask) {
            std::uint32_t lane =
                static_cast<std::uint32_t>(__builtin_ctzll(miss_mask));
            miss_mask &= miss_mask - 1;
            HierarchyStats &st = stats[lane];
            if (is_instr)
                ++st.l1iMisses;
            else
                ++st.l1dMisses;

            // Refill L1 first, as accessInclusive does; the dirty
            // victim updates L2 in place when its line is still
            // there, else the write-back goes off-chip.
            std::uint64_t e = row[lane];
            std::uint32_t victim_line =
                static_cast<std::uint32_t>(e >> 2);
            bool victim_dirty =
                (e & (kValid | kDirty)) == (kValid | kDirty);
            row[lane] = is_store ? (want | kDirty) : want;

            FlatCache &l2 = l2s[lane];
            if (victim_dirty) {
                if (!touchDirtyLineK(l2, victim_line))
                    ++st.offchipWritebacks;
            }

            std::uint64_t evicted = 0;
            if (l2AccessLineK(l2, line, &evicted)) {
                ++st.l2Hits;
                continue;
            }
            ++st.l2Misses;
            if ((evicted & (kValid | kDirty)) == (kValid | kDirty))
                ++st.offchipWritebacks;
            if (evicted & kValid) {
                // Maintain strict inclusion for this lane only: a
                // line leaving L2 may not stay in L1. Line sizes
                // match, so the victim's line number is directly
                // comparable against both split-L1 slots of its set.
                std::uint32_t vline =
                    static_cast<std::uint32_t>(evicted >> 2);
                std::size_t vbase =
                    static_cast<std::size_t>(vline & set_mask) << 1;
                for (std::size_t k = 0; k < 2; ++k) {
                    std::uint64_t *ve =
                        entries + (vbase + k) * w + lane;
                    if ((*ve & kValid) && (*ve >> 2) == vline)
                        *ve &= ~kValid;
                }
            }
        }
    }

    for (std::uint32_t lane = 0; lane < w; ++lane) {
        stats[lane].instrRefs += instr;
        stats[lane].dataRefs += data;
    }
}

} // namespace lanes
} // namespace tlc
