#include "video/sse_kernels.h"

#include <algorithm>
#include <cstdlib>

#if !defined(DIVE_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_SSE_X86 1
#include <immintrin.h>
#endif

#if !defined(DIVE_DISABLE_SIMD) && defined(__aarch64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_SSE_NEON 1
#include <arm_neon.h>
#endif

namespace dive::video {

const char* to_string(SseKernel k) {
  switch (k) {
    case SseKernel::kScalar: return "scalar";
    case SseKernel::kSse2: return "sse2";
    case SseKernel::kAvx2: return "avx2";
    case SseKernel::kNeon: return "neon";
  }
  return "?";
}

std::uint64_t sse_u8_scalar(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    acc += static_cast<std::uint64_t>(d * d);
  }
  return acc;
}

namespace {

// The SIMD kernels accumulate squared differences in 32-bit lanes and
// drain into the u64 total every kBlockBytes input bytes. A 32-bit lane
// gains at most 4 * 255^2 = 260100 per 16 input bytes, so a block of
// 4096 vectors peaks at ~1.07e9 < 2^31 — no lane can overflow.
constexpr std::size_t kBlockBytes = 4096 * 16;

#if defined(DIVE_SSE_X86)

__attribute__((target("sse2"))) std::uint64_t sse_u8_sse2(
    const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  std::uint64_t total = 0;
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  while (i + 16 <= n) {
    const std::size_t block_end = std::min(n, i + kBlockBytes);
    __m128i acc = _mm_setzero_si128();
    for (; i + 16 <= block_end; i += 16) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      // |a - b| as u8 via saturating subtraction in both directions, then
      // widen to u16 and square-accumulate pairwise into i32 lanes
      // (PMADDWD on values <= 255 is exact; 2 * 255^2 fits i32 easily).
      const __m128i d =
          _mm_or_si128(_mm_subs_epu8(va, vb), _mm_subs_epu8(vb, va));
      const __m128i lo = _mm_unpacklo_epi8(d, zero);
      const __m128i hi = _mm_unpackhi_epi8(d, zero);
      acc = _mm_add_epi32(acc, _mm_madd_epi16(lo, lo));
      acc = _mm_add_epi32(acc, _mm_madd_epi16(hi, hi));
    }
    alignas(16) std::uint32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
    total += static_cast<std::uint64_t>(lanes[0]) + lanes[1] + lanes[2] +
             lanes[3];
  }
  for (; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    total += static_cast<std::uint64_t>(d * d);
  }
  return total;
}

__attribute__((target("avx2"))) std::uint64_t sse_u8_avx2(
    const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  std::uint64_t total = 0;
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  while (i + 32 <= n) {
    const std::size_t block_end = std::min(n, i + kBlockBytes);
    __m256i acc = _mm256_setzero_si256();
    for (; i + 32 <= block_end; i += 32) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i d =
          _mm256_or_si256(_mm256_subs_epu8(va, vb), _mm256_subs_epu8(vb, va));
      const __m256i lo = _mm256_unpacklo_epi8(d, zero);
      const __m256i hi = _mm256_unpackhi_epi8(d, zero);
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(lo, lo));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(hi, hi));
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (const std::uint32_t lane : lanes) total += lane;
  }
  // The scalar tail also covers 16..31 trailing bytes; exactness makes
  // the split irrelevant to the result.
  for (; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    total += static_cast<std::uint64_t>(d * d);
  }
  return total;
}

#endif  // DIVE_SSE_X86

#if defined(DIVE_SSE_NEON)

std::uint64_t sse_u8_neon(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  while (i + 16 <= n) {
    const std::size_t block_end = std::min(n, i + kBlockBytes);
    uint32x4_t acc = vdupq_n_u32(0);
    for (; i + 16 <= block_end; i += 16) {
      // VABD is exact on u8; VMULL squares into u16 (255^2 < 65536), and
      // VPADAL widens pairwise into the u32 accumulator.
      const uint8x16_t d = vabdq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
      const uint8x8_t dlo = vget_low_u8(d);
      const uint8x8_t dhi = vget_high_u8(d);
      acc = vpadalq_u16(acc, vmull_u8(dlo, dlo));
      acc = vpadalq_u16(acc, vmull_u8(dhi, dhi));
    }
    total += vaddlvq_u32(acc);
  }
  for (; i < n; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    total += static_cast<std::uint64_t>(d * d);
  }
  return total;
}

#endif  // DIVE_SSE_NEON

#if !defined(DIVE_DISABLE_SIMD)
bool env_forces_scalar() {
  const char* e = std::getenv("DIVE_FORCE_SCALAR");
  if (e == nullptr || *e == '\0') return false;
  return !(e[0] == '0' && e[1] == '\0');
}
#endif

struct Resolved {
  SseKernel kind = SseKernel::kScalar;
  SseU8Fn fn = &sse_u8_scalar;
};

Resolved resolve() {
#if !defined(DIVE_DISABLE_SIMD)
  if (!env_forces_scalar()) {
#if defined(DIVE_SSE_X86)
    if (__builtin_cpu_supports("avx2")) return {SseKernel::kAvx2, &sse_u8_avx2};
    if (__builtin_cpu_supports("sse2")) return {SseKernel::kSse2, &sse_u8_sse2};
#elif defined(DIVE_SSE_NEON)
    return {SseKernel::kNeon, &sse_u8_neon};
#endif
  }
#endif
  return {};
}

const Resolved& resolved() {
  static const Resolved r = resolve();
  return r;
}

}  // namespace

SseKernel active_sse_kernel() { return resolved().kind; }

SseU8Fn sse_u8_fn() { return resolved().fn; }

}  // namespace dive::video
