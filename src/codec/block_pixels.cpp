#include "codec/block_pixels.h"

#include <algorithm>
#include <cstddef>

#include "util/simd.h"

#if defined(DIVE_SIMD_X86)
#include <immintrin.h>
#endif

namespace dive::codec {

namespace {

constexpr int kN = 8;

const std::uint8_t* row(const std::uint8_t* p, int y, int stride) {
  return p + static_cast<std::ptrdiff_t>(y) * stride;
}

#if defined(DIVE_SIMD_X86)

/// The 8 pixels of one row as two vectors of 4 doubles (exact).
struct Row {
  __m256d lo, hi;
};

__attribute__((target("avx2"))) inline Row load_row(const std::uint8_t* p) {
  const __m256i w = _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  return {_mm256_cvtepi32_pd(_mm256_castsi256_si128(w)),
          _mm256_cvtepi32_pd(_mm256_extracti128_si256(w, 1))};
}

__attribute__((target("avx2"))) void load_block_u8_avx2(
    const std::uint8_t* src, int stride, Block8x8& out) {
  for (int y = 0; y < kN; ++y) {
    const Row r = load_row(row(src, y, stride));
    _mm256_storeu_pd(out.data() + y * kN, r.lo);
    _mm256_storeu_pd(out.data() + y * kN + 4, r.hi);
  }
}

__attribute__((target("avx2"))) void residual_block_u8_avx2(
    const std::uint8_t* src, int stride, const Block8x8& pred,
    Block8x8& out) {
  for (int y = 0; y < kN; ++y) {
    const Row r = load_row(row(src, y, stride));
    const double* p = pred.data() + y * kN;
    _mm256_storeu_pd(out.data() + y * kN,
                     _mm256_sub_pd(r.lo, _mm256_loadu_pd(p)));
    _mm256_storeu_pd(out.data() + y * kN + 4,
                     _mm256_sub_pd(r.hi, _mm256_loadu_pd(p + 4)));
  }
}

// max(v, +0.0) then min(., 255.0) returns what std::clamp(v, 0.0, 255.0)
// returns, except that -0.0 becomes +0.0; both truncate to pixel 0. An
// uncoded block skips the add, since pred + 0.0 == pred for every pred
// but -0.0, which again truncates to 0.
__attribute__((target("avx2"))) void store_block_u8_avx2(
    const Block8x8& pred, const Block8x8* res, std::uint8_t* dst,
    int stride) {
  const __m256d lo = _mm256_setzero_pd();
  const __m256d hi = _mm256_set1_pd(255.0);
  for (int y = 0; y < kN; ++y) {
    __m256d v0 = _mm256_loadu_pd(pred.data() + y * kN);
    __m256d v1 = _mm256_loadu_pd(pred.data() + y * kN + 4);
    if (res != nullptr) {
      v0 = _mm256_add_pd(v0, _mm256_loadu_pd(res->data() + y * kN));
      v1 = _mm256_add_pd(v1, _mm256_loadu_pd(res->data() + y * kN + 4));
    }
    v0 = _mm256_min_pd(_mm256_max_pd(v0, lo), hi);
    v1 = _mm256_min_pd(_mm256_max_pd(v1, lo), hi);
    // Values are in [0, 255], so neither pack saturates.
    const __m128i w =
        _mm_packs_epi32(_mm256_cvttpd_epi32(v0), _mm256_cvttpd_epi32(v1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(
                         dst + static_cast<std::ptrdiff_t>(y) * stride),
                     _mm_packus_epi16(w, w));
  }
}

#endif  // DIVE_SIMD_X86

}  // namespace

void load_block_u8_scalar(const std::uint8_t* src, int stride,
                          Block8x8& out) {
  for (int y = 0; y < kN; ++y)
    for (int x = 0; x < kN; ++x)
      out[static_cast<std::size_t>(y * kN + x)] =
          static_cast<double>(row(src, y, stride)[x]);
}

void residual_block_u8_scalar(const std::uint8_t* src, int stride,
                              const Block8x8& pred, Block8x8& out) {
  for (int y = 0; y < kN; ++y)
    for (int x = 0; x < kN; ++x)
      out[static_cast<std::size_t>(y * kN + x)] =
          static_cast<double>(row(src, y, stride)[x]) -
          pred[static_cast<std::size_t>(y * kN + x)];
}

void store_block_u8_scalar(const Block8x8& pred, const Block8x8* res,
                           std::uint8_t* dst, int stride) {
  for (int y = 0; y < kN; ++y)
    for (int x = 0; x < kN; ++x) {
      const auto i = static_cast<std::size_t>(y * kN + x);
      dst[static_cast<std::ptrdiff_t>(y) * stride + x] =
          static_cast<std::uint8_t>(std::clamp(
              pred[i] + (res != nullptr ? (*res)[i] : 0.0), 0.0, 255.0));
    }
}

void load_block_u8(const std::uint8_t* src, int stride, Block8x8& out) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2()) return load_block_u8_avx2(src, stride, out);
#endif
  load_block_u8_scalar(src, stride, out);
}

void residual_block_u8(const std::uint8_t* src, int stride,
                       const Block8x8& pred, Block8x8& out) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2())
    return residual_block_u8_avx2(src, stride, pred, out);
#endif
  residual_block_u8_scalar(src, stride, pred, out);
}

void store_block_u8(const Block8x8& pred, const Block8x8* res,
                    std::uint8_t* dst, int stride) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2()) return store_block_u8_avx2(pred, res, dst, stride);
#endif
  store_block_u8_scalar(pred, res, dst, stride);
}

}  // namespace dive::codec
