/**
 * @file
 * System-configuration implementation.
 */

#include "system_config.hh"

#include <sstream>

#include "timing/access_time.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace tlc {

std::string
SystemAssumptions::toString() const
{
    std::ostringstream os;
    os << offchipNs << "ns off-chip, ";
    if (l1Assoc != 1)
        os << l1Assoc << "-way L1, ";
    os << "L2 ";
    if (l2Assoc == 1)
        os << "direct-mapped";
    else
        os << l2Assoc << "-way";
    os << ", " << twoLevelPolicyName(policy);
    if (dualPortedL1)
        os << ", dual-ported L1";
    return os.str();
}

std::string
SystemConfig::label() const
{
    return formatConfigLabel(l1Bytes, l2Bytes);
}

std::string
SystemConfig::missKeyString() const
{
    std::ostringstream os;
    os << "l1=" << l1Bytes << ";l2=" << l2Bytes << ";line="
       << assume.lineBytes << ";l1assoc=" << assume.l1Assoc;
    if (hasL2()) {
        os << ";l2assoc=" << assume.l2Assoc << ";policy="
           << twoLevelPolicyName(assume.policy) << ";l2repl="
           << replPolicyName(assume.l2Repl);
    }
    return os.str();
}

namespace {

/** A cache level's geometry is valid and the timing model can
 *  organize it (the same geometry Explorer::timingOf prices). */
Status
checkLevel(const CacheParams &p)
{
    Status s = p.check();
    if (!s.ok())
        return s;
    return AccessTimeModel::checkOrganizable(
        SramGeometry{p.sizeBytes, p.lineBytes, p.assoc});
}

} // namespace

Status
SystemConfig::check() const
{
    Status s = checkLevel(l1Params());
    if (!s.ok())
        return s.withContext("L1 of " + label());
    if (hasL2()) {
        s = checkLevel(l2Params());
        if (!s.ok())
            return s.withContext("L2 of " + label());
    }
    return Status();
}

CacheParams
SystemConfig::l1Params() const
{
    CacheParams p;
    p.sizeBytes = l1Bytes;
    p.lineBytes = assume.lineBytes;
    p.assoc = assume.l1Assoc;
    // LRU when associative; the policy is irrelevant direct-mapped.
    p.repl = assume.l1Assoc > 1 ? ReplPolicy::LRU : ReplPolicy::Random;
    return p;
}

CacheParams
SystemConfig::l2Params() const
{
    tlc_assert(hasL2(), "l2Params() on a single-level config");
    CacheParams p;
    p.sizeBytes = l2Bytes;
    p.lineBytes = assume.lineBytes;
    p.assoc = assume.l2Assoc;
    p.repl = assume.l2Repl; // pseudo-random in the paper
    return p;
}

const std::vector<std::uint64_t> &
DesignSpace::l1Sizes()
{
    static const std::vector<std::uint64_t> sizes = {
        1_KiB, 2_KiB, 4_KiB, 8_KiB, 16_KiB, 32_KiB, 64_KiB, 128_KiB,
        256_KiB,
    };
    return sizes;
}

std::vector<std::uint64_t>
DesignSpace::l2SizesFor(std::uint64_t l1_bytes)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t s = 2 * l1_bytes; s <= 256_KiB; s *= 2)
        out.push_back(s);
    return out;
}

std::vector<SystemConfig>
DesignSpace::enumerate(const SystemAssumptions &assume,
                       bool include_single_level, bool include_two_level)
{
    std::vector<SystemConfig> out;
    for (std::uint64_t l1 : l1Sizes()) {
        if (include_single_level) {
            SystemConfig c;
            c.l1Bytes = l1;
            c.l2Bytes = 0;
            c.assume = assume;
            out.push_back(c);
        }
        if (include_two_level) {
            for (std::uint64_t l2 : l2SizesFor(l1)) {
                // A set-associative L2 needs at least one set.
                if (assume.l2Assoc > 0 &&
                    l2 / assume.lineBytes < assume.l2Assoc) {
                    continue;
                }
                SystemConfig c;
                c.l1Bytes = l1;
                c.l2Bytes = l2;
                c.assume = assume;
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace tlc
