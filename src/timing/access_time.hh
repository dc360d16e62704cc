/**
 * @file
 * Analytical cache access- and cycle-time model with organization
 * search (reconstruction of Wilton–Jouppi, WRL TR 93/5).
 */

#ifndef TLC_TIMING_ACCESS_TIME_HH
#define TLC_TIMING_ACCESS_TIME_HH

#include <string>

#include "timing/organization.hh"
#include "timing/technology.hh"
#include "util/status.hh"

namespace tlc {

/** Per-stage delay breakdown of one cache access, in ns. */
struct DelayBreakdown
{
    double decoder = 0;
    double wordline = 0;
    double bitline = 0;   ///< includes sense amplifier
    double compare = 0;   ///< tag comparator
    double muxDriver = 0; ///< set-associative select driver
    double output = 0;    ///< data output driver
    double precharge = 0; ///< cycle-time adder
};

/** Result of optimising one cache's array organization. */
struct TimingResult
{
    double accessNs = 0; ///< start of access to data available
    double cycleNs = 0;  ///< minimum time between access starts
    ArrayOrganization dataOrg;
    ArrayOrganization tagOrg;
    SubarrayDims dataDims;
    SubarrayDims tagDims;
    DelayBreakdown breakdown;
    bool valid = false;

    std::string toString() const;
};

/**
 * The timing model proper. Stateless apart from its technology
 * constants; evaluate() prices one organization, optimize() searches
 * the organization space for the minimum cycle time (tie-broken by
 * access time), exactly as the paper picks "the minimum access and
 * cycle times for each cache size".
 */
class AccessTimeModel
{
  public:
    explicit AccessTimeModel(
        const TechnologyParams &tech = TechnologyParams::scaled05um());

    const TechnologyParams &tech() const { return tech_; }

    /**
     * Delay of one cache with a fixed organization; result.valid is
     * false when the organization does not divide the array evenly.
     */
    TimingResult evaluate(const SramGeometry &g,
                          const ArrayOrganization &data_org,
                          const ArrayOrganization &tag_org) const;

    /**
     * Search organizations for the best (minimum-cycle) timing.
     * Fully-associative geometries take the CAM path. Requires
     * checkOrganizable(@p g) to pass.
     */
    TimingResult optimize(const SramGeometry &g) const;

    /**
     * Whether optimize() can price @p g: an InvalidConfig Status
     * when the geometry leaves no tag bits, has too few entries for
     * a CAM, or no organization divides its data or tag array.
     * Sweeps check this before simulating a point, so a geometry
     * the timing model cannot organize fails that point only.
     */
    static Status checkOrganizable(const SramGeometry &g);

    /**
     * Timing of a fully-associative (CAM-tagged) array: the match
     * lines replace the decoder and drive the data wordlines
     * directly. Used for victim buffers and small TLBs.
     */
    TimingResult evaluateCam(const SramGeometry &g) const;

    /** Number of tag status bits modelled (valid + dirty). */
    static constexpr std::uint32_t kStatusBits = 2;

  private:
    TechnologyParams tech_;
};

} // namespace tlc

#endif // TLC_TIMING_ACCESS_TIME_HH
