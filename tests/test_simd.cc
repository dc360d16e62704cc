/**
 * @file
 * Unit tests for the portable SIMD dispatch layer (util/simd.hh):
 * backend naming, cpuid-backed detection, TLC_SIMD-style override
 * parsing and resolution, the process-wide setSimdBackend override,
 * and the per-backend lane-kernel tables (cache/simd_lanes.hh) the
 * batch engine dispatches through. The *behavioural* equivalence of
 * the backends is proven differentially in test_batch_engine.cc;
 * this file pins the plumbing that selects between them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/simd_lanes.hh"
#include "util/simd.hh"

using namespace tlc;

namespace {

/** RAII: force a backend for one scope, restore env/detection after. */
struct BackendGuard
{
    explicit BackendGuard(SimdBackend b) { setSimdBackend(b); }
    ~BackendGuard() { clearSimdBackendOverride(); }
};

std::vector<SimdBackend>
allBackends()
{
    return {SimdBackend::Scalar, SimdBackend::Avx2};
}

} // namespace

TEST(SimdDispatch, BackendNamesAreStable)
{
    EXPECT_STREQ(simdBackendName(SimdBackend::Scalar), "scalar");
    EXPECT_STREQ(simdBackendName(SimdBackend::Avx2), "avx2");
}

TEST(SimdDispatch, ScalarIsAlwaysCompiledAndSupported)
{
    EXPECT_TRUE(simdBackendCompiled(SimdBackend::Scalar));
    EXPECT_TRUE(simdBackendSupported(SimdBackend::Scalar));
}

TEST(SimdDispatch, SupportImpliesCompiled)
{
    for (SimdBackend b : allBackends()) {
        if (simdBackendSupported(b)) {
            EXPECT_TRUE(simdBackendCompiled(b))
                << simdBackendName(b);
        }
    }
}

TEST(SimdDispatch, CpuidDetectionIsSupportedAndConsistent)
{
    // Whatever detection picks must actually be runnable here, and
    // it must agree with the ISA this binary was built for.
    SimdBackend detected = detectSimdBackend();
    EXPECT_TRUE(simdBackendSupported(detected));
#if defined(__x86_64__) || defined(__i386__)
    if (simdBackendCompiled(SimdBackend::Avx2) &&
        __builtin_cpu_supports("avx2"))
        EXPECT_EQ(detected, SimdBackend::Avx2);
    else
        EXPECT_EQ(detected, SimdBackend::Scalar);
#else
    EXPECT_EQ(detected, SimdBackend::Scalar);
#endif
}

TEST(SimdDispatch, ParseAcceptsKnownNamesAndNative)
{
    ASSERT_TRUE(parseSimdBackend("scalar").ok());
    EXPECT_EQ(parseSimdBackend("scalar").value(), SimdBackend::Scalar);
    ASSERT_TRUE(parseSimdBackend("avx2").ok());
    EXPECT_EQ(parseSimdBackend("avx2").value(), SimdBackend::Avx2);
    ASSERT_TRUE(parseSimdBackend("native").ok());
    EXPECT_EQ(parseSimdBackend("native").value(), detectSimdBackend());
}

TEST(SimdDispatch, ParseRejectsUnknownNames)
{
    for (const char *bad : {"", "AVX2", "sse", "neon", "auto", "scalar "}) {
        Expected<SimdBackend> r = parseSimdBackend(bad);
        ASSERT_FALSE(r.ok()) << "'" << bad << "'";
        EXPECT_EQ(r.status().code(), StatusCode::InvalidConfig);
    }
}

TEST(SimdDispatch, ResolveDefaultsToDetection)
{
    SimdBackend detected = detectSimdBackend();
    Expected<SimdBackend> none = resolveSimdBackend(nullptr, detected);
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none.value(), detected);
    Expected<SimdBackend> empty = resolveSimdBackend("", detected);
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.value(), detected);
    Expected<SimdBackend> native =
        resolveSimdBackend("native", detected);
    ASSERT_TRUE(native.ok());
    EXPECT_EQ(native.value(), detected);
}

TEST(SimdDispatch, ResolveHonoursSupportedOverride)
{
    // Forcing scalar must never degrade to detection: the CI
    // dispatch matrix relies on TLC_SIMD=X meaning X ran.
    Expected<SimdBackend> r =
        resolveSimdBackend("scalar", detectSimdBackend());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), SimdBackend::Scalar);
}

TEST(SimdDispatch, ResolveRejectsImpossibleOverride)
{
    for (SimdBackend b : allBackends()) {
        if (simdBackendSupported(b))
            continue;
        Expected<SimdBackend> r =
            resolveSimdBackend(simdBackendName(b), detectSimdBackend());
        ASSERT_FALSE(r.ok()) << simdBackendName(b);
        EXPECT_EQ(r.status().code(), StatusCode::InvalidConfig);
    }
    Expected<SimdBackend> bogus =
        resolveSimdBackend("bogus", detectSimdBackend());
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.status().code(), StatusCode::InvalidConfig);
}

TEST(SimdDispatch, SetBackendOverridesActiveUntilCleared)
{
    SimdBackend before = activeSimdBackend();
    {
        BackendGuard guard(SimdBackend::Scalar);
        EXPECT_EQ(activeSimdBackend(), SimdBackend::Scalar);
    }
    EXPECT_EQ(activeSimdBackend(), before);
}

TEST(SimdDispatch, LaneKernelsExistForEverySupportedBackend)
{
    for (SimdBackend b : allBackends()) {
        if (!simdBackendSupported(b))
            continue;
        const lanes::LaneKernels &k = lanes::laneKernelsFor(b);
        EXPECT_EQ(k.backend, b) << simdBackendName(b);
        EXPECT_NE(k.runShared, nullptr);
        EXPECT_NE(k.runStrict, nullptr);
    }
    // Distinct backends dispatch to distinct kernel code.
    if (simdBackendSupported(SimdBackend::Avx2)) {
        EXPECT_NE(lanes::laneKernelsFor(SimdBackend::Scalar).runShared,
                  lanes::laneKernelsFor(SimdBackend::Avx2).runShared);
    }
}

TEST(SimdDispatch, TagAllocatorAlignsAndZeroes)
{
    // Both allocator paths (small aligned-new, large mmap) must hand
    // back 64-byte-aligned, already-zero memory — the kernels rely on
    // all-zero meaning "every tag word invalid", and resize() on a
    // TagVector intentionally skips value-initialization.
    for (std::size_t n : {std::size_t{512},
                          (lanes::TagAllocator<std::uint64_t>::kMmapBytes /
                           sizeof(std::uint64_t)) * 2}) {
        lanes::TagVector v;
        v.resize(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
        std::uint64_t acc = 0;
        for (std::uint64_t w : v)
            acc |= w;
        EXPECT_EQ(acc, 0u) << "n=" << n;
    }
}
