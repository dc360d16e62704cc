/**
 * @file
 * Differential tests: the optimized Cache implementation checked
 * against simple, obviously-correct reference models on randomized
 * streams, and cross-model consistency properties between the
 * hierarchy flavours.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <vector>

#include "cache/single_level.hh"
#include "cache/two_level.hh"
#include "trace/workload.hh"
#include "util/random.hh"

using namespace tlc;

namespace {

/**
 * Reference model: a direct-mapped cache as a plain map from set to
 * line address.
 */
class RefDirectMapped
{
  public:
    RefDirectMapped(std::uint64_t size, std::uint32_t line)
        : sets_(size / line), line_(line)
    {
    }

    bool access(std::uint64_t addr)
    {
        std::uint64_t la = addr / line_;
        std::uint64_t set = la % sets_;
        auto it = map_.find(set);
        if (it != map_.end() && it->second == la)
            return true;
        map_[set] = la;
        return false;
    }

  private:
    std::uint64_t sets_;
    std::uint32_t line_;
    std::map<std::uint64_t, std::uint64_t> map_;
};

/**
 * Reference model: set-associative LRU via per-set std::list.
 */
class RefSetAssocLru
{
  public:
    RefSetAssocLru(std::uint64_t size, std::uint32_t line,
                   std::uint32_t ways)
        : sets_(size / line / ways), ways_(ways), line_(line),
          lru_(sets_)
    {
    }

    bool access(std::uint64_t addr)
    {
        std::uint64_t la = addr / line_;
        auto &set = lru_[la % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == la) {
                set.erase(it);
                set.push_front(la);
                return true;
            }
        }
        set.push_front(la);
        if (set.size() > ways_)
            set.pop_back();
        return false;
    }

  private:
    std::uint64_t sets_;
    std::uint32_t ways_;
    std::uint32_t line_;
    std::vector<std::list<std::uint64_t>> lru_;
};

CacheParams
params(std::uint64_t size, std::uint32_t assoc, ReplPolicy repl)
{
    CacheParams p;
    p.sizeBytes = size;
    p.lineBytes = 16;
    p.assoc = assoc;
    p.repl = repl;
    return p;
}

} // namespace

TEST(Differential, DirectMappedMatchesReference)
{
    Cache c(params(4096, 1, ReplPolicy::Random));
    RefDirectMapped ref(4096, 16);
    Pcg32 rng(21);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t addr = rng.nextBounded(1 << 16);
        bool hit = c.lookupAndTouch(addr);
        if (!hit)
            c.fill(addr);
        ASSERT_EQ(hit, ref.access(addr)) << "ref " << i;
    }
}

class DifferentialLru
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(DifferentialLru, SetAssocLruMatchesReference)
{
    auto [size, ways] = GetParam();
    Cache c(params(size, ways, ReplPolicy::LRU));
    RefSetAssocLru ref(size, 16, ways);
    Pcg32 rng(33 + ways);
    for (int i = 0; i < 60000; ++i) {
        std::uint64_t addr = rng.nextBounded(1 << 16);
        bool hit = c.lookupAndTouch(addr);
        if (!hit)
            c.fill(addr);
        ASSERT_EQ(hit, ref.access(addr)) << "ref " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DifferentialLru,
    ::testing::Combine(::testing::Values(1024, 4096, 16384),
                       ::testing::Values(2, 4, 8)));

// A two-level hierarchy whose L2 is so large it never evicts must
// show exactly the same L1 behaviour as the single-level system,
// and its L2 misses must equal the number of distinct lines.
TEST(Differential, HugeL2MatchesSingleLevelL1Behaviour)
{
    TraceBuffer t = Workloads::generate(Benchmark::Doduc, 120000);

    SingleLevelHierarchy single(params(4096, 1, ReplPolicy::Random));
    // 16 MB L2: larger than any workload footprint.
    CacheParams l2 = params(16 * 1024 * 1024, 4, ReplPolicy::Random);
    TwoLevelHierarchy two(params(4096, 1, ReplPolicy::Random), l2,
                          TwoLevelPolicy::Inclusive);
    single.simulate(t);
    two.simulate(t);

    EXPECT_EQ(single.stats().l1iMisses, two.stats().l1iMisses);
    EXPECT_EQ(single.stats().l1dMisses, two.stats().l1dMisses);
    // Every L2 miss is compulsory (the L2 never evicts).
    std::set<std::uint64_t> lines;
    for (const auto &rec : t)
        lines.insert(rec.addr >> 4);
    EXPECT_EQ(two.stats().l2Misses, lines.size());
}

// Inclusive and exclusive policies must see identical L1 behaviour
// (the L1s are managed identically; only L2 content differs).
TEST(Differential, L1MissesIndependentOfL2Policy)
{
    TraceBuffer t = Workloads::generate(Benchmark::Li, 120000);
    auto run = [&](TwoLevelPolicy pol) {
        TwoLevelHierarchy h(params(2048, 1, ReplPolicy::Random),
                            params(16384, 4, ReplPolicy::Random), pol);
        h.simulate(t);
        return h.stats();
    };
    HierarchyStats inc = run(TwoLevelPolicy::Inclusive);
    HierarchyStats strict = run(TwoLevelPolicy::StrictInclusive);
    HierarchyStats excl = run(TwoLevelPolicy::Exclusive);
    EXPECT_EQ(inc.l1iMisses, excl.l1iMisses);
    EXPECT_EQ(inc.l1dMisses, excl.l1dMisses);
    // Strict inclusion may add L1 misses (back-invalidations) but
    // never removes any.
    EXPECT_GE(strict.l1iMisses, inc.l1iMisses);
    EXPECT_GE(strict.l1dMisses, inc.l1dMisses);
}

// The stronger form the shared-L1 lane kernels rest on: neither
// non-strict policy moves L2 state into the L1, so after any trace
// both L1 arrays hold exactly the same lines under Inclusive and
// Exclusive, whatever the L2's shape (including one smaller than the
// L1, and one whose sets equal the L1's lines).
TEST(Differential, L1StateIndependentOfL2Policy)
{
    TraceBuffer t = Workloads::generate(Benchmark::Gcc1, 60000);
    struct L2Shape
    {
        std::uint64_t size;
        std::uint32_t assoc;
        ReplPolicy repl;
    };
    for (const L2Shape &l2 : {L2Shape{16384, 4, ReplPolicy::Random},
                              L2Shape{32768, 8, ReplPolicy::LRU},
                              L2Shape{4096, 1, ReplPolicy::Random},
                              L2Shape{1024, 2, ReplPolicy::FIFO}}) {
        SCOPED_TRACE(std::to_string(l2.size) + "B x" +
                     std::to_string(l2.assoc));
        auto run = [&](TwoLevelPolicy pol) {
            auto h = std::make_unique<TwoLevelHierarchy>(
                params(4096, 1, ReplPolicy::Random),
                params(l2.size, l2.assoc, l2.repl), pol);
            h->simulate(t);
            return h;
        };
        auto inc = run(TwoLevelPolicy::Inclusive);
        auto excl = run(TwoLevelPolicy::Exclusive);
        EXPECT_GT(excl->stats().l2Hits, 0u);
        EXPECT_EQ(inc->icache().residentLineAddrs(),
                  excl->icache().residentLineAddrs());
        EXPECT_EQ(inc->dcache().residentLineAddrs(),
                  excl->dcache().residentLineAddrs());
    }
}

// L2 hit + miss counts always partition L1 misses, for every policy
// and geometry (randomized property).
TEST(Differential, L2CountsPartitionL1Misses)
{
    Pcg32 rng(55);
    for (int iter = 0; iter < 12; ++iter) {
        std::uint64_t l1 = 1024u << rng.nextBounded(3);
        std::uint64_t l2 = l1 * (2u << rng.nextBounded(3));
        TwoLevelPolicy pol = static_cast<TwoLevelPolicy>(
            rng.nextBounded(3));
        TwoLevelHierarchy h(params(l1, 1, ReplPolicy::Random),
                            params(l2, 4, ReplPolicy::Random), pol);
        Pcg32 addrs(iter);
        for (int i = 0; i < 20000; ++i) {
            RefType ty = static_cast<RefType>(addrs.nextBounded(3));
            h.access({addrs.nextBounded(1 << 18), ty});
        }
        const HierarchyStats &s = h.stats();
        ASSERT_EQ(s.l2Hits + s.l2Misses, s.l1Misses())
            << twoLevelPolicyName(pol);
        ASSERT_EQ(s.totalRefs(), 20000u);
    }
}

// Total lines resident on-chip never exceed the physical capacity.
TEST(Differential, ResidencyNeverExceedsCapacity)
{
    for (TwoLevelPolicy pol :
         {TwoLevelPolicy::Inclusive, TwoLevelPolicy::Exclusive}) {
        TwoLevelHierarchy h(params(1024, 1, ReplPolicy::Random),
                            params(4096, 4, ReplPolicy::Random), pol);
        Pcg32 rng(77);
        for (int i = 0; i < 30000; ++i) {
            h.access({rng.nextBounded(1 << 16), RefType::Load});
            if (i % 500 == 0) {
                ASSERT_LE(h.icache().residentLines(), 64u);
                ASSERT_LE(h.dcache().residentLines(), 64u);
                ASSERT_LE(h.l2cache().residentLines(), 256u);
            }
        }
    }
}
