// The one SIMD dispatch policy of every runtime-dispatched kernel (SAD,
// SSE, and the transform, quantizer and block pixel kernels). The
// DIVE_DISABLE_SIMD compile gate wins, then the DIVE_FORCE_SCALAR
// environment variable (any value other than "0"), then CPU detection
// (AVX2 > SSE2 on x86, NEON on AArch64). Every kernel matches its scalar
// reference bit for bit, so the level changes host time only.
#pragma once

#include <cstdint>

#if !defined(DIVE_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_SIMD_X86 1
#endif

#if !defined(DIVE_DISABLE_SIMD) && defined(__aarch64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_SIMD_NEON 1
#endif

namespace dive::util {

enum class SimdLevel : std::uint8_t { kScalar, kSse2, kAvx2, kNeon };

const char* to_string(SimdLevel level);

/// This process's level, resolved on first use in a function-local
/// static, so another translation unit's static initialiser cannot read
/// it unresolved.
SimdLevel simd_level();

/// simd_level() == kAvx2, cached where the per-block kernels branch on it.
inline bool simd_avx2() {
  static const bool avx2 = simd_level() == SimdLevel::kAvx2;
  return avx2;
}

}  // namespace dive::util
