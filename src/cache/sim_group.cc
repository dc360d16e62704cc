/**
 * @file
 * SimGroup implementation: lane grouping over the data-oriented lane
 * layouts in cache/simd_lanes.hh, generic Hierarchy lanes for the
 * rest, and the epoch pipeline that runs them.
 */

#include "sim_group.hh"

#include <algorithm>

#include "cache/single_level.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace tlc {

namespace {

/**
 * Records per pipeline epoch. Long enough that one parallelFor per
 * epoch is noise next to the work it carries, short enough that the
 * walk of the first epoch — the one step with nothing to overlap —
 * is a small share of a pass, and that an epoch's records stay
 * resident in the host's L2 while the strict and generic tasks
 * re-read them.
 */
constexpr std::size_t kEpochRecords = std::size_t{1} << 16;

} // namespace

/** One unit of a pipeline step (see simulate()). */
struct SimGroup::Task
{
    enum class Kind : std::uint8_t { Walk, Replay, Strict, Generic };
    Kind kind;
    bool exclusive = false;  ///< Replay: which sub list
    std::uint32_t index = 0; ///< forest / group / block / generic lane
    std::uint32_t lo = 0;    ///< Replay: sub range [lo, hi)
    std::uint32_t hi = 0;
};

lanes::SharedL1Group &
SimGroup::sharedGroupFor(const CacheParams &l1_params)
{
    // A direct-mapped L1's replacement policy and RNG are
    // unobservable, so the geometry fields are the whole key.
    for (lanes::SharedL1Group &g : sharedGroups_) {
        if (g.l1Params.sizeBytes == l1_params.sizeBytes &&
            g.l1Params.lineBytes == l1_params.lineBytes)
            return g;
    }
    sharedGroups_.emplace_back(l1_params);
    return sharedGroups_.back();
}

std::uint32_t
SimGroup::strictBlockFor(const CacheParams &l1_params)
{
    for (std::uint32_t b = 0; b < strictBlocks_.size(); ++b) {
        const lanes::StrictLaneBlock &blk = strictBlocks_[b];
        if (blk.l1Params.sizeBytes == l1_params.sizeBytes &&
            blk.l1Params.lineBytes == l1_params.lineBytes &&
            blk.width() < lanes::StrictLaneBlock::kMaxBlockLanes)
            return b;
    }
    strictBlocks_.emplace_back(l1_params);
    return static_cast<std::uint32_t>(strictBlocks_.size() - 1);
}

std::size_t
SimGroup::addSingleLevel(const CacheParams &l1_params, std::uint64_t seed)
{
    if (l1_params.ways() == 1 && !accessed_) {
        // Same-geometry direct-mapped L1s are bit-identical (no
        // replacement state), so every such lane shares one group's
        // L1 walk and stats block.
        lanes::SharedL1Group &g = sharedGroupFor(l1_params);
        ++g.singleMembers;
        std::uint32_t group =
            static_cast<std::uint32_t>(&g - sharedGroups_.data());
        lanes_.push_back({LaneKind::SharedSingle, group});
    } else {
        genericLanes_.push_back(
            std::make_unique<SingleLevelHierarchy>(l1_params, seed));
        lanes_.push_back(
            {LaneKind::Generic,
             static_cast<std::uint32_t>(genericLanes_.size() - 1)});
    }
    return lanes_.size() - 1;
}

std::size_t
SimGroup::addTwoLevel(const CacheParams &l1_params,
                      const CacheParams &l2_params, TwoLevelPolicy policy,
                      std::uint64_t seed)
{
    // Lanes added after records have run take the generic path: the
    // flat flavours share or re-stride state in ways that are only
    // equivalent to a solo run when the lane starts cold.
    bool flat = l1_params.ways() == 1 &&
                l1_params.lineBytes == l2_params.lineBytes && !accessed_;
    if (flat && policy != TwoLevelPolicy::StrictInclusive) {
        // Neither non-strict inclusion nor exclusion ever writes L2
        // state back into the L1 (an exclusive swap refills the L1
        // exactly as an inclusive miss does), so lanes sharing an L1
        // geometry share one simulated L1 and fan out over the
        // recorded miss stream.
        lanes::SharedL1Group &g = sharedGroupFor(l1_params);
        bool exclusive = policy == TwoLevelPolicy::Exclusive;
        std::vector<lanes::SharedL1Group::Sub> &subs =
            exclusive ? g.exclusiveSubs : g.subs;
        subs.emplace_back(l2_params, seed + 2);
        std::uint32_t group =
            static_cast<std::uint32_t>(&g - sharedGroups_.data());
        lanes_.push_back(
            {exclusive ? LaneKind::SharedExclusive : LaneKind::SharedSub,
             group, static_cast<std::uint32_t>(subs.size() - 1)});
    } else if (flat) {
        // Strict inclusion back-invalidates L1 lines, so each lane
        // keeps a private L1 — interleaved with its same-geometry
        // peers for the vectorized probe.
        std::uint32_t block = strictBlockFor(l1_params);
        std::uint32_t lane =
            strictBlocks_[block].addLane(l2_params, seed + 2);
        lanes_.push_back({LaneKind::Strict, block, lane});
    } else {
        genericLanes_.push_back(std::make_unique<TwoLevelHierarchy>(
            l1_params, l2_params, policy, seed));
        lanes_.push_back(
            {LaneKind::Generic,
             static_cast<std::uint32_t>(genericLanes_.size() - 1)});
    }
    return lanes_.size() - 1;
}

std::size_t
SimGroup::addHierarchy(std::unique_ptr<Hierarchy> h)
{
    tlc_assert(h != nullptr, "addHierarchy(nullptr)");
    genericLanes_.push_back(std::move(h));
    lanes_.push_back({LaneKind::Generic,
                      static_cast<std::uint32_t>(genericLanes_.size() - 1)});
    return lanes_.size() - 1;
}

std::size_t
SimGroup::flatLaneCount() const
{
    return lanes_.size() - genericLanes_.size();
}

bool
SimGroup::laneIsFlat(std::size_t lane) const
{
    tlc_assert(lane < lanes_.size(), "lane %zu out of range", lane);
    return lanes_[lane].kind != LaneKind::Generic;
}

void
SimGroup::buildForests()
{
    forests_.clear();
    for (lanes::SharedL1Group &g : sharedGroups_) {
        auto it = std::find_if(forests_.begin(), forests_.end(),
                               [&](const lanes::L1Forest &f) {
                                   return f.lineShift == g.lineShift;
                               });
        if (it == forests_.end()) {
            forests_.emplace_back();
            it = forests_.end() - 1;
            it->lineShift = g.lineShift;
        }
        it->levels.push_back(&g);
    }
    for (lanes::L1Forest &f : forests_) {
        std::sort(f.levels.begin(), f.levels.end(),
                  [](const lanes::SharedL1Group *a,
                     const lanes::SharedL1Group *b) {
                      return a->setMask < b->setMask;
                  });
    }
}

void
SimGroup::foldWalk(unsigned buf, std::size_t records)
{
    for (const lanes::L1Forest &f : forests_) {
        const std::uint64_t instr = f.instrRefs[buf];
        const std::uint64_t data = records - instr;
        for (lanes::SharedL1Group *g : f.levels) {
            const lanes::SharedL1Group::Epoch &ep = g->epochs[buf];
            for (auto *list : {&g->subs, &g->exclusiveSubs}) {
                for (lanes::SharedL1Group::Sub &s : *list) {
                    s.stats.instrRefs += instr;
                    s.stats.dataRefs += data;
                    s.stats.l1iMisses += ep.imiss;
                    s.stats.l1dMisses += ep.dmiss;
                }
            }
            if (g->singleMembers > 0) {
                // One stats block for every L1-only member: without
                // an L2, every miss fetches off-chip and every dirty
                // victim writes back off-chip (SingleLevelHierarchy
                // semantics).
                HierarchyStats &st = g->singleStats;
                st.instrRefs += instr;
                st.dataRefs += data;
                st.l1iMisses += ep.imiss;
                st.l1dMisses += ep.dmiss;
                st.l2Misses += ep.imiss + ep.dmiss;
                st.offchipWritebacks += ep.dirtyVictims;
            }
        }
    }
}

void
SimGroup::consumeTasks(unsigned buf, std::size_t team,
                       std::vector<Task> &out) const
{
    for (std::uint32_t i = 0; i < genericLanes_.size(); ++i)
        out.push_back({Task::Kind::Generic, false, i});
    for (std::uint32_t i = 0; i < strictBlocks_.size(); ++i)
        out.push_back({Task::Kind::Strict, false, i});

    // A replay task's cost is its subs times its level's misses.
    // Tasks take kReplayInterleave subs, fewer only where a level's
    // subs would otherwise hold more than one worker's share of the
    // epoch: narrow tasks overlap fewer tag-row misses, which costs
    // throughput on one thread.
    std::uint64_t total = 0;
    for (const lanes::SharedL1Group &g : sharedGroups_) {
        total += g.epochs[buf].misses *
            (g.subs.size() + g.exclusiveSubs.size());
    }
    const std::uint64_t share = (total + team - 1) / team;
    const std::size_t first = out.size();
    for (std::uint32_t gi = 0; gi < sharedGroups_.size(); ++gi) {
        const lanes::SharedL1Group &g = sharedGroups_[gi];
        const std::uint64_t misses = g.epochs[buf].misses;
        for (bool exclusive : {false, true}) {
            const std::size_t subs =
                (exclusive ? g.exclusiveSubs : g.subs).size();
            if (subs == 0 || misses == 0)
                continue;
            const std::size_t fit = std::clamp<std::uint64_t>(
                share / misses, 1, lanes::kReplayInterleave);
            const std::size_t tasks = (subs + fit - 1) / fit;
            for (std::size_t t = 0; t < tasks; ++t) {
                out.push_back(
                    {Task::Kind::Replay, exclusive, gi,
                     static_cast<std::uint32_t>(subs * t / tasks),
                     static_cast<std::uint32_t>(subs * (t + 1) / tasks)});
            }
        }
    }
    // Costliest first, so the longest tasks start first.
    auto cost = [&](const Task &t) {
        return sharedGroups_[t.index].epochs[buf].misses * (t.hi - t.lo);
    };
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(first),
                     out.end(), [&](const Task &a, const Task &b) {
                         return cost(a) > cost(b);
                     });
}

void
SimGroup::simulate(const TraceRecord *recs, std::size_t n,
                   std::size_t warmup_refs)
{
    const std::size_t warm = std::min(warmup_refs, n);
    if (warm == 0)
        resetStats();
    if (n == 0)
        return;
    accessed_ = true;
    buildForests();

    // Epoch e covers records [cuts[e], cuts[e + 1]); one cut falls on
    // the warmup boundary, so no epoch straddles the stats reset.
    std::vector<std::size_t> cuts{0};
    for (std::size_t end : {warm, n}) {
        while (cuts.back() < end)
            cuts.push_back(std::min(cuts.back() + kEpochRecords, end));
    }
    const std::size_t epochs = cuts.size() - 1;
    for (lanes::SharedL1Group &g : sharedGroups_) {
        if (g.hasSubs()) {
            for (lanes::SharedL1Group::Epoch &ep : g.epochs)
                ep.queue.reserve(std::min(kEpochRecords, n));
        }
    }

    // Step e walks epoch e (if any) and consumes epoch e - 1 (if
    // any), so the walk — the pass's one serial chain — overlaps the
    // replays of the epoch before it. Walks go first in a step's task
    // list so a worker picks them up at once.
    const std::size_t team = parallelWorkerCount();
    auto buildStep = [&](std::size_t e, std::vector<Task> &out) {
        out.clear();
        if (e < epochs) {
            for (std::uint32_t f = 0; f < forests_.size(); ++f)
                out.push_back({Task::Kind::Walk, false, f});
        }
        if (e > 0)
            consumeTasks(static_cast<unsigned>(e - 1) & 1, team, out);
    };
    auto runTask = [&](const Task &task, std::size_t e) {
        const TraceRecord *const prev = e > 0 ? recs + cuts[e - 1] : recs;
        const std::size_t prev_n = e > 0 ? cuts[e] - cuts[e - 1] : 0;
        switch (task.kind) {
          case Task::Kind::Walk:
            lanes::walkForest(forests_[task.index], recs + cuts[e],
                              cuts[e + 1] - cuts[e],
                              static_cast<unsigned>(e & 1));
            break;
          case Task::Kind::Replay:
            lanes::replay(sharedGroups_[task.index], task.exclusive,
                          task.lo, task.hi,
                          static_cast<unsigned>(e - 1) & 1);
            break;
          case Task::Kind::Strict:
            lanes::runStrict(strictBlocks_[task.index], prev, prev_n);
            break;
          case Task::Kind::Generic: {
            Hierarchy &h = *genericLanes_[task.index];
            for (std::size_t i = 0; i < prev_n; ++i)
                h.access(prev[i]);
            break;
          }
        }
    };

    std::vector<Task> tasks;
    for (std::size_t e = 0; e <= epochs; ++e) {
        buildStep(e, tasks);
        parallelFor(tasks.size(),
                    [&](std::size_t t) { runTask(tasks[t], e); });
        if (e > 0) {
            // Warmup counts are folded in before the reset zeroes
            // them with everything else.
            foldWalk(static_cast<unsigned>(e - 1) & 1,
                     cuts[e] - cuts[e - 1]);
            if (cuts[e] == warm)
                resetStats();
        }
    }
    for (const lanes::L1Forest &f : forests_)
        tagProbes_ += f.tagProbes;
}

void
SimGroup::resetStats()
{
    for (lanes::SharedL1Group &group : sharedGroups_) {
        group.singleStats = HierarchyStats{};
        for (lanes::SharedL1Group::Sub &s : group.subs)
            s.stats = HierarchyStats{};
        for (lanes::SharedL1Group::Sub &s : group.exclusiveSubs)
            s.stats = HierarchyStats{};
    }
    for (lanes::StrictLaneBlock &blk : strictBlocks_) {
        for (HierarchyStats &s : blk.stats)
            s = HierarchyStats{};
    }
    for (auto &h : genericLanes_)
        h->resetStats();
}

const HierarchyStats &
SimGroup::stats(std::size_t lane) const
{
    tlc_assert(lane < lanes_.size(), "lane %zu out of range", lane);
    const LaneRef &ref = lanes_[lane];
    switch (ref.kind) {
      case LaneKind::SharedSingle:
        return sharedGroups_[ref.index].singleStats;
      case LaneKind::SharedSub:
        return sharedGroups_[ref.index].subs[ref.sub].stats;
      case LaneKind::SharedExclusive:
        return sharedGroups_[ref.index].exclusiveSubs[ref.sub].stats;
      case LaneKind::Strict:
        return strictBlocks_[ref.index].stats[ref.sub];
      case LaneKind::Generic:
        return genericLanes_[ref.index]->stats();
    }
    panic("unreachable lane kind");
}

} // namespace tlc
