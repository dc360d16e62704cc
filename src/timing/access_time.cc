/**
 * @file
 * Access-time model implementation.
 *
 * Structure follows the Wilton–Jouppi model: the data side proceeds
 * decoder → wordline → bitline/sense → output driver; the tag side
 * proceeds decoder → wordline → bitline/sense → comparator, then
 * (set-associative) drives the output multiplexor or (direct-mapped)
 * a valid signal. The access completes when both sides are done;
 * the cycle time adds bitline precharge/equalisation.
 *
 * Each side's delay depends on its own organization only, so both
 * evaluate() and the organization search build a result from the
 * same three helpers: dataSide(), tagSide() and merge(). The search
 * prices every valid data organization and every valid tag
 * organization once, then only merges pairs (docs/models.md).
 */

#include "access_time.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace tlc {

std::string
TimingResult::toString() const
{
    std::ostringstream os;
    os << "access=" << accessNs << "ns cycle=" << cycleNs << "ns data("
       << dataOrg.toString() << " " << dataDims.rows << "x"
       << dataDims.cols << ") tag(" << tagOrg.toString() << " "
       << tagDims.rows << "x" << tagDims.cols << ")";
    return os.str();
}

AccessTimeModel::AccessTimeModel(const TechnologyParams &tech)
    : tech_(tech)
{
}

namespace {

/** The organization space the search walks, outermost first. */
constexpr std::uint32_t kNwl[] = {1, 2, 4, 8};
constexpr std::uint32_t kNbl[] = {1, 2, 4, 8, 16, 32};
constexpr std::uint32_t kNspd[] = {1, 2, 4, 8};
constexpr std::uint32_t kTwl[] = {1, 2};
constexpr std::uint32_t kTbl[] = {1, 2, 4, 8, 16};
constexpr std::uint32_t kTspd[] = {1, 2, 4};

/**
 * Rough silicon cost of an organization (padded-cell count). Used
 * only to break near-ties in the cycle-time search: heavy
 * subdivision buys little speed at small sizes but costs real area,
 * and no designer would pay it. The constants mirror the area
 * model's peripheral charges (see area/area_model.hh).
 */
double
organizationAreaProxy(const SubarrayDims &d, std::uint32_t subarrays)
{
    return ((d.rows + 6.0) * (d.cols + 3.0) + 500.0) * subarrays;
}

/** The data-array terms of one organization, in unscaled ns. */
struct DataSide
{
    ArrayOrganization org;
    SubarrayDims dims;
    double decoder = 0;
    double wordline = 0;
    double bitline = 0;   ///< includes sense amplifier
    double delay = 0;     ///< decoder + wordline + bitline
    double output = 0;    ///< data output driver
    double areaProxy = 0;
};

/** The tag-array terms of one organization, in unscaled ns. */
struct TagSide
{
    ArrayOrganization org;
    SubarrayDims dims;
    double decoder = 0;
    double wordline = 0;
    double bitline = 0;
    double compare = 0;
    double delay = 0; ///< decoder + wordline + bitline + compare
    /** When the tag result reaches the data path: delay plus the
     *  valid driver (direct-mapped) or the select driver. */
    double ready = 0;
    double areaProxy = 0;
};

/** One (data, tag) pairing, in unscaled ns. */
struct Merged
{
    double access = 0;
    double precharge = 0;
};

DataSide
dataSide(const TechnologyParams &t, const SramGeometry &g,
         const ArrayOrganization &o, const SubarrayDims &dd)
{
    DataSide d;
    d.org = o;
    d.dims = dd;
    d.decoder = t.decBase + t.decPerAddrBit * log2i(dd.rows) +
        t.decPerSubarray * o.numSubarrays();
    d.wordline = t.wlBase + t.wlPerCol * dd.cols +
        t.wlPerCol2 * static_cast<double>(dd.cols) * dd.cols;
    // Column multiplexing: each subarray outputs outputBits bits, so
    // cols / (outputBits / ways-sharing) columns share a sense amp.
    double colmux = std::max(1.0,
        static_cast<double>(dd.cols) /
        std::max(1u, g.outputBits));
    d.bitline = t.blBase + t.blPerRow * dd.rows +
        t.blPerRow2 * static_cast<double>(dd.rows) * dd.rows +
        t.blPerMuxLog2 * log2i(static_cast<std::uint64_t>(colmux));
    d.delay = d.decoder + d.wordline + d.bitline;
    d.output = t.outBase +
        t.outPerSubarrayLog2 * log2i(o.numSubarrays());
    d.areaProxy = organizationAreaProxy(dd, o.numSubarrays());
    return d;
}

/** Set-associative select driver; direct-mapped arrays have none. */
double
muxDriver(const TechnologyParams &t, const SramGeometry &g)
{
    return g.assoc == 1 ? 0.0 : t.muxBase + t.muxPerWay * g.assoc;
}

TagSide
tagSide(const TechnologyParams &t, const SramGeometry &g,
        const ArrayOrganization &o, const SubarrayDims &td)
{
    TagSide s;
    s.org = o;
    s.dims = td;
    s.decoder = t.decBase + t.decPerAddrBit * log2i(td.rows) +
        t.decPerSubarray * o.numSubarrays();
    s.wordline = t.wlBase + t.wlPerCol * td.cols +
        t.wlPerCol2 * static_cast<double>(td.cols) * td.cols;
    s.bitline = t.blBase + t.blPerRow * td.rows +
        t.blPerRow2 * static_cast<double>(td.rows) * td.rows;
    s.compare = t.cmpBase + t.cmpPerTagBit * g.tagBits();
    s.delay = s.decoder + s.wordline + s.bitline + s.compare;
    // Direct-mapped: data is driven out speculatively while the tag
    // comparison raises the valid signal in parallel. Set-
    // associative: the comparator must drive the output multiplexor
    // before data can leave the array.
    s.ready = s.delay + (g.assoc == 1 ? t.validOut : muxDriver(t, g));
    s.areaProxy = organizationAreaProxy(td, o.numSubarrays());
    return s;
}

/** The access and precharge of one pairing: the only terms that
 *  need both sides. `inline` because it is the whole body of the
 *  search's pair loops; GCC at -O2 otherwise calls it out of line,
 *  which costs a fifth of the search. */
inline Merged
merge(const TechnologyParams &t, const SramGeometry &g,
      const DataSide &d, const TagSide &s)
{
    Merged m;
    m.access = g.assoc == 1 ? std::max(d.delay + d.output, s.ready)
                            : std::max(d.delay, s.ready) + d.output;
    m.precharge = t.preBase +
        t.prePerRow * std::max(d.dims.rows, s.dims.rows);
    return m;
}

/** Every organization of the data array that divides it evenly. */
std::vector<std::pair<ArrayOrganization, SubarrayDims>>
validDataOrgs(const SramGeometry &g)
{
    std::vector<std::pair<ArrayOrganization, SubarrayDims>> out;
    for (auto nwl : kNwl) {
        for (auto nbl : kNbl) {
            for (auto nspd : kNspd) {
                ArrayOrganization o{nwl, nbl, nspd};
                SubarrayDims d = SubarrayDims::dataArray(g, o);
                if (d.valid)
                    out.emplace_back(o, d);
            }
        }
    }
    return out;
}

/** Every organization of the tag array that divides it evenly. */
std::vector<std::pair<ArrayOrganization, SubarrayDims>>
validTagOrgs(const SramGeometry &g)
{
    std::vector<std::pair<ArrayOrganization, SubarrayDims>> out;
    for (auto twl : kTwl) {
        for (auto tbl : kTbl) {
            for (auto tspd : kTspd) {
                ArrayOrganization o{twl, tbl, tspd};
                SubarrayDims d = SubarrayDims::tagArray(
                    g, o, AccessTimeModel::kStatusBits);
                if (d.valid)
                    out.emplace_back(o, d);
            }
        }
    }
    return out;
}

} // namespace

TimingResult
AccessTimeModel::evaluate(const SramGeometry &g,
                          const ArrayOrganization &data_org,
                          const ArrayOrganization &tag_org) const
{
    TimingResult r;
    SubarrayDims dd = SubarrayDims::dataArray(g, data_org);
    SubarrayDims td = SubarrayDims::tagArray(g, tag_org, kStatusBits);
    if (!dd.valid || !td.valid)
        return r;

    const DataSide d = dataSide(tech_, g, data_org, dd);
    const TagSide s = tagSide(tech_, g, tag_org, td);
    const Merged m = merge(tech_, g, d, s);

    DelayBreakdown &b = r.breakdown;
    b.decoder = std::max(d.decoder, s.decoder);
    b.wordline = std::max(d.wordline, s.wordline);
    b.bitline = std::max(d.bitline, s.bitline);
    b.compare = s.compare;
    b.muxDriver = muxDriver(tech_, g);
    b.output = d.output;
    b.precharge = m.precharge;

    const double sc = tech_.processScale;
    r.accessNs = m.access * sc;
    r.cycleNs = (m.access + m.precharge) * sc;
    r.dataOrg = data_org;
    r.tagOrg = tag_org;
    r.dataDims = dd;
    r.tagDims = td;
    r.valid = true;
    return r;
}

TimingResult
AccessTimeModel::evaluateCam(const SramGeometry &g) const
{
    const TechnologyParams &t = tech_;
    std::uint64_t entries = g.sizeBytes / g.blockBytes;
    tlc_assert(entries >= 2, "CAM needs at least two entries");

    TimingResult r;
    SubarrayDims dd;
    dd.rows = static_cast<std::uint32_t>(entries);
    dd.cols = 8 * g.blockBytes;
    dd.valid = true;

    DelayBreakdown b;
    // Tag side: broadcast the address on the match lines, compare in
    // every entry, wired-OR into a hit signal that selects the data
    // wordline.
    double cam = t.camBase + t.camPerTagBit * g.tagBits() +
        t.camPerEntryLog2 * log2i(entries);
    // Data side after the match: one wordline + bitline read.
    double wl = t.wlBase + t.wlPerCol * dd.cols +
        t.wlPerCol2 * static_cast<double>(dd.cols) * dd.cols;
    double bl = t.blBase + t.blPerRow * dd.rows +
        t.blPerRow2 * static_cast<double>(dd.rows) * dd.rows;
    double out = t.outBase;
    double access = cam + wl + bl + out;
    double pre = t.preBase + t.prePerRow * dd.rows;

    b.compare = cam;
    b.wordline = wl;
    b.bitline = bl;
    b.output = out;
    b.precharge = pre;

    double sc = t.processScale;
    r.accessNs = access * sc;
    r.cycleNs = (access + pre) * sc;
    r.dataOrg = ArrayOrganization{1, 1, 1};
    r.tagOrg = ArrayOrganization{1, 1, 1};
    r.dataDims = dd;
    SubarrayDims td;
    td.rows = static_cast<std::uint32_t>(entries);
    td.cols = g.tagBits() + kStatusBits;
    td.valid = true;
    r.tagDims = td;
    r.breakdown = b;
    r.valid = true;
    return r;
}

Status
AccessTimeModel::checkOrganizable(const SramGeometry &g)
{
    auto unorganizable = [&](const char *why) {
        return statusf(StatusCode::InvalidConfig,
                       "the timing model cannot organize a %llu-byte "
                       "%u-way cache with %u-byte lines: %s",
                       static_cast<unsigned long long>(g.sizeBytes),
                       g.assoc, g.blockBytes, why);
    };
    if (g.assoc == 0)
        return unorganizable("give a fully-associative cache one way "
                             "per line");
    if (g.blockBytes == 0 || g.numSets() == 0)
        return unorganizable("it has no sets");
    if (g.addrBits <= log2i(g.numSets()) + log2i(g.blockBytes))
        return unorganizable("the address has no tag bits left");
    if (g.fullyAssociative()) {
        if (g.sizeBytes / g.blockBytes < 2)
            return unorganizable("a CAM needs at least two entries");
        return Status{};
    }
    if (validDataOrgs(g).empty())
        return unorganizable("no data-array organization fits");
    if (validTagOrgs(g).empty())
        return unorganizable("no tag-array organization fits");
    return Status{};
}

TimingResult
AccessTimeModel::optimize(const SramGeometry &g) const
{
    if (g.fullyAssociative())
        return evaluateCam(g);

    // Price each side once per organization; a pair then costs one
    // merge. The pairs are visited in the order of the nested
    // data-outer/tag-inner loop the selection rule is defined over.
    std::vector<DataSide> data;
    for (const auto &[o, d] : validDataOrgs(g))
        data.push_back(dataSide(tech_, g, o, d));
    std::vector<TagSide> tags;
    for (const auto &[o, d] : validTagOrgs(g))
        tags.push_back(tagSide(tech_, g, o, d));
    if (data.empty() || tags.empty()) {
        panic("no valid organization for cache size %llu",
              static_cast<unsigned long long>(g.sizeBytes));
    }

    const double sc = tech_.processScale;
    auto cycleOf = [&](const DataSide &d, const TagSide &s) {
        const Merged m = merge(tech_, g, d, s);
        return (m.access + m.precharge) * sc;
    };
    double min_cycle = std::numeric_limits<double>::infinity();
    for (const DataSide &d : data) {
        for (const TagSide &s : tags)
            min_cycle = std::min(min_cycle, cycleOf(d, s));
    }

    // Among organizations within 3% of the best cycle time, pick the
    // cheapest in silicon; break remaining ties by access time.
    const DataSide *bestData = nullptr;
    const TagSide *bestTag = nullptr;
    double bestArea = 0;
    double bestAccess = 0;
    for (const DataSide &d : data) {
        for (const TagSide &s : tags) {
            if (cycleOf(d, s) > min_cycle * 1.03)
                continue;
            const double area = d.areaProxy + s.areaProxy;
            const double access = merge(tech_, g, d, s).access * sc;
            if (!bestData || area < bestArea ||
                (area == bestArea && access < bestAccess)) {
                bestData = &d;
                bestTag = &s;
                bestArea = area;
                bestAccess = access;
            }
        }
    }
    return evaluate(g, bestData->org, bestTag->org);
}

} // namespace tlc
