/**
 * @file
 * The organization search against its specification.
 *
 * AccessTimeModel::optimize prices each data and tag organization
 * once and merges pairs. The specification is the plain search this
 * file keeps as a reference: evaluate() every (data, tag) pair of
 * the 96 x 30 organization space, then among the pairs within 3% of
 * the minimum cycle time take the smallest area proxy, ties to the
 * shorter access time, first in data-outer/tag-inner order. Both
 * must agree bit for bit on every TimingResult field, on a grid of
 * geometries and on every geometry the figures and the design space
 * price. checkOrganizable() must fail exactly where the reference
 * finds no pair.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/figures.hh"
#include "core/system_config.hh"
#include "timing/access_time.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/** The area tie-break term of the search, as documented. */
double
areaProxy(const SubarrayDims &d, std::uint32_t subarrays)
{
    return ((d.rows + 6.0) * (d.cols + 3.0) + 500.0) * subarrays;
}

/** Reference search: every pair through the public evaluate(). An
 *  empty optional when no pair is valid. */
std::optional<TimingResult>
bruteForceOptimize(const AccessTimeModel &m, const SramGeometry &g)
{
    static const std::uint32_t kNwl[] = {1, 2, 4, 8};
    static const std::uint32_t kNbl[] = {1, 2, 4, 8, 16, 32};
    static const std::uint32_t kNspd[] = {1, 2, 4, 8};
    static const std::uint32_t kTwl[] = {1, 2};
    static const std::uint32_t kTbl[] = {1, 2, 4, 8, 16};
    static const std::uint32_t kTspd[] = {1, 2, 4};

    struct Candidate
    {
        TimingResult timing;
        double area;
    };
    std::vector<Candidate> cands;
    for (auto nwl : kNwl)
        for (auto nbl : kNbl)
            for (auto nspd : kNspd)
                for (auto twl : kTwl)
                    for (auto tbl : kTbl)
                        for (auto tspd : kTspd) {
                            ArrayOrganization d{nwl, nbl, nspd};
                            ArrayOrganization t{twl, tbl, tspd};
                            TimingResult r = m.evaluate(g, d, t);
                            if (!r.valid)
                                continue;
                            cands.push_back(
                                {r, areaProxy(r.dataDims,
                                              d.numSubarrays()) +
                                        areaProxy(r.tagDims,
                                                  t.numSubarrays())});
                        }
    if (cands.empty())
        return std::nullopt;

    double minCycle = cands[0].timing.cycleNs;
    for (const Candidate &c : cands)
        minCycle = std::min(minCycle, c.timing.cycleNs);
    const Candidate *best = nullptr;
    for (const Candidate &c : cands) {
        if (c.timing.cycleNs > minCycle * 1.03)
            continue;
        if (!best || c.area < best->area ||
            (c.area == best->area &&
             c.timing.accessNs < best->timing.accessNs)) {
            best = &c;
        }
    }
    return best->timing;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectBitEqual(const TimingResult &a, const TimingResult &b,
               const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(bits(a.accessNs), bits(b.accessNs));
    EXPECT_EQ(bits(a.cycleNs), bits(b.cycleNs));
    EXPECT_EQ(a.dataOrg.nwl, b.dataOrg.nwl);
    EXPECT_EQ(a.dataOrg.nbl, b.dataOrg.nbl);
    EXPECT_EQ(a.dataOrg.nspd, b.dataOrg.nspd);
    EXPECT_EQ(a.tagOrg.nwl, b.tagOrg.nwl);
    EXPECT_EQ(a.tagOrg.nbl, b.tagOrg.nbl);
    EXPECT_EQ(a.tagOrg.nspd, b.tagOrg.nspd);
    EXPECT_EQ(a.dataDims.rows, b.dataDims.rows);
    EXPECT_EQ(a.dataDims.cols, b.dataDims.cols);
    EXPECT_EQ(a.dataDims.valid, b.dataDims.valid);
    EXPECT_EQ(a.tagDims.rows, b.tagDims.rows);
    EXPECT_EQ(a.tagDims.cols, b.tagDims.cols);
    EXPECT_EQ(a.tagDims.valid, b.tagDims.valid);
    EXPECT_EQ(bits(a.breakdown.decoder), bits(b.breakdown.decoder));
    EXPECT_EQ(bits(a.breakdown.wordline), bits(b.breakdown.wordline));
    EXPECT_EQ(bits(a.breakdown.bitline), bits(b.breakdown.bitline));
    EXPECT_EQ(bits(a.breakdown.compare), bits(b.breakdown.compare));
    EXPECT_EQ(bits(a.breakdown.muxDriver),
              bits(b.breakdown.muxDriver));
    EXPECT_EQ(bits(a.breakdown.output), bits(b.breakdown.output));
    EXPECT_EQ(bits(a.breakdown.precharge),
              bits(b.breakdown.precharge));
    EXPECT_EQ(a.valid, b.valid);
}

std::string
describe(const SramGeometry &g)
{
    return std::to_string(g.sizeBytes) + "B/" +
        std::to_string(g.assoc) + "-way/" +
        std::to_string(g.blockBytes) + "B";
}

/** optimize() equals the reference on @p g, or both refuse it.
 *  Returns whether @p g was organizable. */
bool
checkGeometry(const AccessTimeModel &m, const SramGeometry &g)
{
    Status organizable = AccessTimeModel::checkOrganizable(g);
    std::optional<TimingResult> ref = bruteForceOptimize(m, g);
    EXPECT_EQ(organizable.ok(), ref.has_value())
        << describe(g) << ": " << organizable.toString();
    if (!ref)
        return false;
    EXPECT_TRUE(ref->valid);
    expectBitEqual(m.optimize(g), *ref, describe(g));
    return true;
}

} // namespace

TEST(OrganizationSearch, MatchesBruteForceOnGeometryGrid)
{
    const AccessTimeModel m;
    std::size_t checked = 0;
    std::size_t organized = 0;
    for (std::uint64_t size = 1_KiB; size <= 2_MiB; size *= 2) {
        for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            for (std::uint32_t line = 4; line <= 256; line *= 2) {
                SramGeometry g{size, line, assoc};
                if (g.numSets() < 16)
                    continue;
                ++checked;
                organized += checkGeometry(m, g);
            }
        }
    }
    EXPECT_GT(checked, 300u);
    EXPECT_GT(organized, 300u);
}

TEST(OrganizationSearch, MatchesBruteForceOnEveryPricedGeometry)
{
    // Every (size, assoc, line) that a figure prices, and that the
    // design space prices at the L1 and L2 associativities the
    // sweeps and benches use, deduplicated.
    std::set<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
        geoms;
    auto addSpace = [&](const SystemAssumptions &a) {
        for (const SystemConfig &c : DesignSpace::enumerate(a)) {
            geoms.emplace(c.l1Bytes, a.l1Assoc, a.lineBytes);
            if (c.hasL2())
                geoms.emplace(c.l2Bytes, a.l2Assoc, a.lineBytes);
        }
    };
    for (const FigureSpec &f : figureCatalog())
        addSpace(f.assume);
    for (std::uint32_t l1Assoc : {1u, 2u, 4u}) {
        for (std::uint32_t l2Assoc : {1u, 2u, 4u, 8u, 16u}) {
            SystemAssumptions a;
            a.l1Assoc = l1Assoc;
            a.l2Assoc = l2Assoc;
            addSpace(a);
        }
    }

    const AccessTimeModel m;
    for (const auto &[size, assoc, line] : geoms) {
        SramGeometry g{size, line, assoc};
        if (g.fullyAssociative())
            continue; // the CAM path is not a search
        EXPECT_TRUE(checkGeometry(m, g)) << describe(g);
    }
    EXPECT_GE(geoms.size(), 40u);
}

TEST(OrganizationSearch, UnorganizableGeometriesAreTypedErrors)
{
    // A 64 B direct-mapped cache with 32 B lines has two data rows:
    // no data organization fits. A 16 MB direct-mapped cache with
    // 16 B lines has 2^20 sets: its tag array stays too tall even
    // split 64 ways.
    for (SramGeometry g : {SramGeometry{64, 32, 1},
                           SramGeometry{16_MiB, 16, 1}}) {
        Status s = AccessTimeModel::checkOrganizable(g);
        EXPECT_EQ(s.code(), StatusCode::InvalidConfig) << describe(g);
        EXPECT_FALSE(bruteForceOptimize(AccessTimeModel(), g))
            << describe(g);
    }
    // An address too narrow for the index and offset has no tag.
    Status s = AccessTimeModel::checkOrganizable(
        SramGeometry{1_KiB, 16, 1, 8, 64});
    EXPECT_EQ(s.code(), StatusCode::InvalidConfig);
    // A one-entry CAM, and a zero-way geometry.
    EXPECT_EQ(AccessTimeModel::checkOrganizable(SramGeometry{16, 16, 1})
                  .code(),
              StatusCode::InvalidConfig);
    EXPECT_EQ(AccessTimeModel::checkOrganizable(SramGeometry{1_KiB, 16, 0})
                  .code(),
              StatusCode::InvalidConfig);
    // A fully-associative buffer is organizable (the CAM path).
    EXPECT_TRUE(
        AccessTimeModel::checkOrganizable(SramGeometry{1_KiB, 16, 64})
            .ok());
}

TEST(OrganizationSearch, SystemConfigCheckRejectsUnorganizableLevels)
{
    SystemConfig c;
    c.l1Bytes = 8_KiB;
    c.l2Bytes = 16_MiB;
    c.assume.l2Assoc = 1;
    c.assume.lineBytes = 16;
    Status s = c.check();
    EXPECT_EQ(s.code(), StatusCode::InvalidConfig);
    EXPECT_NE(s.message().find("L2 of"), std::string::npos)
        << s.message();
    c.assume.l2Assoc = 4;
    c.l2Bytes = 256_KiB;
    EXPECT_TRUE(c.check().ok());
}
