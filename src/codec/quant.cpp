#include "codec/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/simd.h"

#if defined(DIVE_SIMD_X86)
#include <immintrin.h>
#endif

namespace dive::codec {

const QuantStep& quant_step(int qp) {
  static const std::array<QuantStep, kMaxQp + 1> table = [] {
    std::array<QuantStep, kMaxQp + 1> t{};
    for (int q = kMinQp; q <= kMaxQp; ++q) {
      const double step = 0.625 * std::pow(2.0, static_cast<double>(q) / 6.0);
      t[static_cast<std::size_t>(q)] = {step, step / 6.0};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(std::clamp(qp, kMinQp, kMaxQp))];
}

std::uint64_t quantize_scalar(const Block8x8& coeffs, int qp,
                              QuantBlock& levels) {
  const QuantStep& q = quant_step(qp);
  // Most coefficients of a residual block lie inside the dead zone, so
  // find the rest first (branch-free, a byte of the mask at a time so the
  // shifts are constants) and divide only those.
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < 64; i += 8) {
    std::uint64_t byte = 0;
    for (std::size_t j = 0; j < 8; ++j)
      byte |= static_cast<std::uint64_t>(std::abs(coeffs[i + j]) > q.deadzone)
              << j;
    live |= byte << i;
  }
  levels.fill(0);
  std::uint64_t nonzero = 0;
  for (; live != 0; live &= live - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(live));
    // Round half away from zero, exactly as std::lround: the quotient
    // minus its truncation is its exact fractional part.
    const double x = coeffs[i] / q.step;
    const auto t = static_cast<std::int32_t>(x);
    const double frac = x - static_cast<double>(t);
    const std::int32_t level =
        t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
    levels[i] = level;
    nonzero |= static_cast<std::uint64_t>(level != 0) << i;
  }
  return nonzero;
}

namespace {

#if defined(DIVE_SIMD_X86)

// quantize_scalar four lanes at a time. The dead-zone compare, the IEEE
// division, the truncating convert (vcvttpd2dq equals the scalar
// static_cast for every |quotient| < 2^31), its exact widening back and
// the subtraction give each live lane the scalar's quotient, truncation
// and fraction bit for bit; the +-0.5 compares then round it the same
// way. A group with no live lane stores zeros and skips the divide.

/// Narrows a 4 x 64-bit compare mask to 4 x 32 bits.
__attribute__((target("avx2"))) inline __m128i to_i32(__m256d mask) {
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), low_halves));
}

__attribute__((target("avx2"))) std::uint64_t quantize_avx2(
    const Block8x8& coeffs, int qp, QuantBlock& levels) {
  const QuantStep& q = quant_step(qp);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d dz = _mm256_set1_pd(q.deadzone);
  const __m256d step = _mm256_set1_pd(q.step);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  std::uint64_t nonzero = 0;
  for (int i = 0; i < 64; i += 4) {
    __m128i* dst = reinterpret_cast<__m128i*>(levels.data() + i);
    const __m256d c = _mm256_loadu_pd(coeffs.data() + i);
    const __m256d live =
        _mm256_cmp_pd(_mm256_andnot_pd(sign, c), dz, _CMP_GT_OQ);
    if (_mm256_movemask_pd(live) == 0) {
      _mm_storeu_si128(dst, _mm_setzero_si128());
      continue;
    }
    const __m256d x = _mm256_div_pd(c, step);
    const __m128i t = _mm256_cvttpd_epi32(x);
    const __m256d frac = _mm256_sub_pd(x, _mm256_cvtepi32_pd(t));
    // A true mask lane is -1: subtracting it adds one.
    const __m128i level = _mm_and_si128(
        to_i32(live),
        _mm_add_epi32(
            _mm_sub_epi32(t, to_i32(_mm256_cmp_pd(frac, half, _CMP_GE_OQ))),
            to_i32(_mm256_cmp_pd(frac, neg_half, _CMP_LE_OQ))));
    _mm_storeu_si128(dst, level);
    const int zero = _mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(level, _mm_setzero_si128())));
    nonzero |= static_cast<std::uint64_t>(~zero & 0xF) << i;
  }
  return nonzero;
}

#endif  // DIVE_SIMD_X86

}  // namespace

std::uint64_t quantize(const Block8x8& coeffs, int qp, QuantBlock& levels) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2()) return quantize_avx2(coeffs, qp, levels);
#endif
  return quantize_scalar(coeffs, qp, levels);
}

void dequantize(const QuantBlock& levels, int qp, Block8x8& coeffs) {
  const double step = quant_step(qp).step;
  for (int i = 0; i < 64; ++i) {
    coeffs[static_cast<std::size_t>(i)] =
        static_cast<double>(levels[static_cast<std::size_t>(i)]) * step;
  }
}

const std::array<int, 64>& zigzag_order() {
  static const std::array<int, 64> order = [] {
    std::array<int, 64> o{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {
        // Walk up-right.
        for (int y = std::min(s, 7); y >= std::max(0, s - 7); --y)
          o[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
      } else {
        for (int x = std::min(s, 7); x >= std::max(0, s - 7); --x)
          o[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
      }
    }
    return o;
  }();
  return order;
}

const std::array<int, 64>& zigzag_rank() {
  static const std::array<int, 64> rank = [] {
    std::array<int, 64> r{};
    const auto& zz = zigzag_order();
    for (int i = 0; i < 64; ++i)
      r[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])] = i;
    return r;
  }();
  return rank;
}

}  // namespace dive::codec
