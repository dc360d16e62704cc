/**
 * @file
 * Whole-system cache configuration descriptors and the paper's
 * design-space enumeration.
 */

#ifndef TLC_CORE_SYSTEM_CONFIG_HH
#define TLC_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/two_level.hh"

namespace tlc {

/**
 * Assumptions held fixed across one experiment (one figure):
 * off-chip service time, L2 associativity and policy, L1 cell type.
 */
struct SystemAssumptions
{
    double offchipNs = 50.0;    ///< off-chip miss service (50 or 200)
    /** L1 ways. The paper fixes 1 (direct-mapped, citing Hill); other
     *  values support the associativity study in bench_hill_l1_assoc. */
    std::uint32_t l1Assoc = 1;
    std::uint32_t l2Assoc = 4;  ///< L2 ways (1 = direct-mapped)
    TwoLevelPolicy policy = TwoLevelPolicy::Inclusive;
    bool dualPortedL1 = false;  ///< §6: 2x area, 2x issue rate
    std::uint32_t lineBytes = 16;
    /** L2 replacement (paper: pseudo-random; others for ablation). */
    ReplPolicy l2Repl = ReplPolicy::Random;

    std::string toString() const;
};

/**
 * One point of the design space: the sizes of the (split, equal,
 * direct-mapped) L1 caches and of the mixed L2 (0 = absent), plus
 * the experiment assumptions.
 */
struct SystemConfig
{
    std::uint64_t l1Bytes = 8 * 1024; ///< EACH of the I and D caches
    std::uint64_t l2Bytes = 0;        ///< 0 => single-level system
    SystemAssumptions assume;

    bool hasL2() const { return l2Bytes != 0; }

    /**
     * Check that both cache levels have valid geometry and that the
     * timing model can organize each of them, returning a
     * descriptive InvalidConfig Status naming the offending level
     * instead of aborting. Sweeps call this before simulating or
     * pricing a point so one degenerate configuration cannot kill a
     * run.
     */
    Status check() const;

    /** The paper's "L1:L2" label in KB, e.g. "32:256" or "8:0". */
    std::string label() const;

    /**
     * Canonical serialization of every parameter the MISS COUNTS of
     * this configuration depend on — geometry, associativities, line
     * size, policy and replacement (by stable name, not enum value)
     * — and nothing they don't (off-chip time, porting, cell type
     * are timing-only). Both the evaluator's in-memory memo and the
     * persistent sweep cache (core/sweep_cache.hh) key on this, so
     * the two can never disagree about which results are
     * interchangeable.
     */
    std::string missKeyString() const;

    /** Cache parameters for each L1 array (direct-mapped, split). */
    CacheParams l1Params() const;
    /** Cache parameters for the L2 array (requires hasL2()). */
    CacheParams l2Params() const;
};

/**
 * Enumerate the paper's design space for one set of assumptions:
 * L1 in {1K..256K} per side; L2 absent or in {2*L1 .. 256K}.
 */
class DesignSpace
{
  public:
    /** L1 sizes studied by the paper (bytes per side). */
    static const std::vector<std::uint64_t> &l1Sizes();

    /** L2 sizes valid for a given L1 size (excludes 0). */
    static std::vector<std::uint64_t> l2SizesFor(std::uint64_t l1_bytes);

    /** The full configuration list (single-level + two-level). */
    static std::vector<SystemConfig> enumerate(
        const SystemAssumptions &assume, bool include_single_level = true,
        bool include_two_level = true);
};

} // namespace tlc

#endif // TLC_CORE_SYSTEM_CONFIG_HH
