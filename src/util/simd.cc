#include "util/simd.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace tlc {
namespace {

/**
 * Process-wide override installed by setSimdBackend(); kSimdNoOverride
 * means "fall through to env/detection". Plain int (not optional) so
 * static init is constant-initialized.
 */
constexpr int kSimdNoOverride = -1;
int g_forcedBackend = kSimdNoOverride;

SimdBackend
resolveFromEnvOnce()
{
    const char *env = std::getenv("TLC_SIMD");
    Expected<SimdBackend> r = resolveSimdBackend(env, detectSimdBackend());
    if (!r.ok()) {
        // A forced-but-impossible backend must not silently degrade:
        // the CI dispatch matrix relies on TLC_SIMD=X meaning X ran.
        panic("TLC_SIMD: %s", r.status().message().c_str());
    }
    return r.value();
}

} // namespace

const char *
simdBackendName(SimdBackend b)
{
    switch (b) {
      case SimdBackend::Scalar: return "scalar";
      case SimdBackend::Avx2: return "avx2";
    }
    return "unknown";
}

bool
simdBackendCompiled(SimdBackend b)
{
    switch (b) {
      case SimdBackend::Scalar:
        return true;
      case SimdBackend::Avx2:
#if defined(TLC_SIMD_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
simdBackendSupported(SimdBackend b)
{
    if (!simdBackendCompiled(b))
        return false;
    switch (b) {
      case SimdBackend::Scalar:
        return true;
      case SimdBackend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

SimdBackend
detectSimdBackend()
{
    if (simdBackendSupported(SimdBackend::Avx2))
        return SimdBackend::Avx2;
    return SimdBackend::Scalar;
}

Expected<SimdBackend>
parseSimdBackend(const std::string &text)
{
    if (text == "scalar")
        return SimdBackend::Scalar;
    if (text == "avx2")
        return SimdBackend::Avx2;
    if (text == "native")
        return detectSimdBackend();
    return statusf(StatusCode::InvalidConfig,
                   "unknown SIMD backend '%s' "
                   "(expected scalar, avx2, or native)",
                   text.c_str());
}

Expected<SimdBackend>
resolveSimdBackend(const char *override_text, SimdBackend detected)
{
    if (override_text == nullptr || override_text[0] == '\0')
        return detected;
    const std::string text(override_text);
    if (text == "native")
        return detected;
    Expected<SimdBackend> parsed = parseSimdBackend(text);
    if (!parsed.ok())
        return parsed;
    if (!simdBackendSupported(parsed.value())) {
        return statusf(StatusCode::InvalidConfig,
                       "backend '%s' is not %s",
                       simdBackendName(parsed.value()),
                       simdBackendCompiled(parsed.value())
                           ? "supported by this machine's CPU"
                           : "compiled into this binary");
    }
    return parsed;
}

SimdBackend
activeSimdBackend()
{
    if (g_forcedBackend != kSimdNoOverride)
        return static_cast<SimdBackend>(g_forcedBackend);
    static const SimdBackend resolved = resolveFromEnvOnce();
    return resolved;
}

void
setSimdBackend(SimdBackend b)
{
    if (!simdBackendSupported(b)) {
        panic("setSimdBackend: backend '%s' is not supported here",
              simdBackendName(b));
    }
    g_forcedBackend = static_cast<int>(b);
}

void
clearSimdBackendOverride()
{
    g_forcedBackend = kSimdNoOverride;
}

} // namespace tlc
