#include "codec/sad_kernels.h"

#include <cstdlib>

#if !defined(DIVE_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_SAD_X86 1
#include <immintrin.h>
#endif

#if !defined(DIVE_DISABLE_SIMD) && defined(__aarch64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DIVE_SAD_NEON 1
#include <arm_neon.h>
#endif

namespace dive::codec {

namespace {
constexpr int kMb = 16;
}  // namespace

const char* to_string(SadKernel k) {
  switch (k) {
    case SadKernel::kScalar: return "scalar";
    case SadKernel::kSse2: return "sse2";
    case SadKernel::kAvx2: return "avx2";
    case SadKernel::kNeon: return "neon";
  }
  return "?";
}

std::uint32_t sad_16x16_scalar(const std::uint8_t* cur, int cur_stride,
                               const std::uint8_t* ref, int ref_stride) {
  std::uint32_t acc = 0;
  for (int y = 0; y < kMb; ++y) {
    const std::uint8_t* c = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* r = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    for (int x = 0; x < kMb; ++x) {
      const int d = static_cast<int>(c[x]) - static_cast<int>(r[x]);
      acc += static_cast<std::uint32_t>(d < 0 ? -d : d);
    }
  }
  return acc;
}

namespace {

#if defined(DIVE_SAD_X86)

// PSADBW computes the exact u8 absolute-difference sum per 8-byte lane,
// so both x86 kernels are bit-equal to the scalar reference by ISA
// definition — no rounding or saturation is involved anywhere.
__attribute__((target("sse2"))) std::uint32_t sad_16x16_sse2(
    const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
    int ref_stride) {
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < kMb; ++y) {
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        cur + static_cast<std::ptrdiff_t>(y) * cur_stride));
    const __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        ref + static_cast<std::ptrdiff_t>(y) * ref_stride));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(c, r));
  }
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc)) +
         static_cast<std::uint32_t>(
             _mm_cvtsi128_si32(_mm_srli_si128(acc, 8)));
}

__attribute__((target("avx2"))) std::uint32_t sad_16x16_avx2(
    const std::uint8_t* cur, int cur_stride, const std::uint8_t* ref,
    int ref_stride) {
  __m256i acc = _mm256_setzero_si256();
  for (int y = 0; y < kMb; y += 2) {
    const std::uint8_t* c0 = cur + static_cast<std::ptrdiff_t>(y) * cur_stride;
    const std::uint8_t* r0 = ref + static_cast<std::ptrdiff_t>(y) * ref_stride;
    const __m256i c = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(c0))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c0 + cur_stride)), 1);
    const __m256i r = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + ref_stride)), 1);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(c, r));
  }
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s)) +
         static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(s, 8)));
}

#endif  // DIVE_SAD_X86

#if defined(DIVE_SAD_NEON)

// VABD on u8 is exact; VADDLV widens to u16 before the cross-lane sum
// (one row sums to at most 16*255 = 4080 < 65535), so the NEON kernel is
// bit-equal to the scalar reference as well.
std::uint32_t sad_16x16_neon(const std::uint8_t* cur, int cur_stride,
                             const std::uint8_t* ref, int ref_stride) {
  std::uint32_t acc = 0;
  for (int y = 0; y < kMb; ++y) {
    const uint8x16_t c =
        vld1q_u8(cur + static_cast<std::ptrdiff_t>(y) * cur_stride);
    const uint8x16_t r =
        vld1q_u8(ref + static_cast<std::ptrdiff_t>(y) * ref_stride);
    acc += vaddlvq_u8(vabdq_u8(c, r));
  }
  return acc;
}

#endif  // DIVE_SAD_NEON

#if !defined(DIVE_DISABLE_SIMD)
bool env_forces_scalar() {
  const char* e = std::getenv("DIVE_FORCE_SCALAR");
  if (e == nullptr || *e == '\0') return false;
  return !(e[0] == '0' && e[1] == '\0');
}
#endif

struct Resolved {
  SadKernel kind = SadKernel::kScalar;
  Sad16Fn fn = &sad_16x16_scalar;
};

Resolved resolve() {
#if !defined(DIVE_DISABLE_SIMD)
  if (!env_forces_scalar()) {
#if defined(DIVE_SAD_X86)
    if (__builtin_cpu_supports("avx2"))
      return {SadKernel::kAvx2, &sad_16x16_avx2};
    if (__builtin_cpu_supports("sse2"))
      return {SadKernel::kSse2, &sad_16x16_sse2};
#elif defined(DIVE_SAD_NEON)
    return {SadKernel::kNeon, &sad_16x16_neon};
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

SadKernel active_sad_kernel() { return resolved().kind; }

Sad16Fn sad_16x16_fn() { return resolved().fn; }

}  // namespace dive::codec
