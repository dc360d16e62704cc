/**
 * @file
 * The lane-kernel backend name. The lane kernels (cache/simd_lanes.cc)
 * are plain scalar C++, so there is exactly one backend.
 */

#ifndef TLC_UTIL_SIMD_HH
#define TLC_UTIL_SIMD_HH

#include <cstdint>

namespace tlc {

// Kept only because perfbench/src/main.cc prints `simd=` from it.

/** Instruction set the lane kernels were compiled against. */
enum class SimdBackend : std::uint8_t { Scalar };

/** Stable lower-case name ("scalar"). */
constexpr const char *
simdBackendName(SimdBackend)
{
    return "scalar";
}

/** The backend the lane kernels run on: always Scalar. */
constexpr SimdBackend
activeSimdBackend()
{
    return SimdBackend::Scalar;
}

} // namespace tlc

#endif // TLC_UTIL_SIMD_HH
