#include "util/simd.h"

#include <cstdlib>
#include <string_view>

namespace dive::util {

namespace {

SimdLevel resolve() {
#if defined(DIVE_SIMD_X86) || defined(DIVE_SIMD_NEON)
  const char* force = std::getenv("DIVE_FORCE_SCALAR");
  if (force != nullptr && *force != '\0' && std::string_view(force) != "0")
    return SimdLevel::kScalar;
#if defined(DIVE_SIMD_X86)
  // The first use may come from a static initialiser, before libgcc's
  // own constructor has initialised CPU detection.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
#else
  return SimdLevel::kNeon;
#endif
#endif
  return SimdLevel::kScalar;
}

}  // namespace

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse2: return "sse2";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kNeon: return "neon";
  }
  return "?";
}

SimdLevel simd_level() {
  static const SimdLevel level = resolve();
  return level;
}

}  // namespace dive::util
