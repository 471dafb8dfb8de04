#include "codec/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "codec/bitstream.h"
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
      t[static_cast<std::size_t>(q)] = {step, 0.5 * step * (1.0 - 0x1p-40)};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(std::clamp(qp, kMinQp, kMaxQp))];
}

std::uint64_t quantize_scalar(const Block8x8& coeffs, int qp,
                              QuantBlock& levels) {
  const QuantStep& q = quant_step(qp);
  // Most coefficients of a residual block lie at or below the zero bound,
  // so find the rest first (branch-free, a byte of the mask at a time so
  // the shifts are constants) and divide only those.
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < 64; i += 8) {
    std::uint64_t byte = 0;
    for (std::size_t j = 0; j < 8; ++j)
      byte |= static_cast<std::uint64_t>(std::abs(coeffs[i + j]) >
                                         q.zero_bound)
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

int quantize_scan_bits_scalar(const Block8x8& scan_coeffs, int qp,
                              QuantBlock& levels, std::uint64_t& scan) {
  scan = quantize_scalar(scan_coeffs, qp, levels);
  if (scan == 0) return 0;
  int bits =
      BitWriter::ue_bits(static_cast<std::uint32_t>(std::popcount(scan)));
  for (std::uint64_t rest = scan, next = 0; rest != 0; rest &= rest - 1) {
    const auto pos = static_cast<std::uint64_t>(std::countr_zero(rest));
    bits += BitWriter::ue_bits(static_cast<std::uint32_t>(pos - next)) +
            BitWriter::se_bits(levels[pos]);
    next = pos + 1;
  }
  return bits;
}

namespace {

#if defined(DIVE_SIMD_X86)

// quantize_scalar four lanes at a time. The zero-bound compare, the IEEE
// division, the truncating convert (vcvttpd2dq equals the scalar
// static_cast for every |quotient| < 2^31), its exact widening back and
// the subtraction give each lane the scalar's quotient, truncation and
// fraction bit for bit; the +-0.5 compares then round it the same way. A
// group with no coefficient above the zero bound stores zeros and skips
// the divide; a lane at or below the bound in a live group rounds to 0
// by itself, as the scalar code never divides it.

/// Narrows a 4 x 64-bit compare mask to 4 x 32 bits.
__attribute__((target("avx2"))) inline __m128i to_i32(__m256d mask) {
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), low_halves));
}

/// The per-QP constants of the four-lane quantizer.
struct Lanes {
  __m256d sign, zero_bound, step, half, neg_half;
};

__attribute__((target("avx2"))) inline Lanes lanes_of(int qp) {
  const QuantStep& q = quant_step(qp);
  return {_mm256_set1_pd(-0.0), _mm256_set1_pd(q.zero_bound),
          _mm256_set1_pd(q.step), _mm256_set1_pd(0.5), _mm256_set1_pd(-0.5)};
}

/// Levels of coeffs[i..i+3] into levels[i..i+3], returned as well (zeros
/// without a divide when no |c| passes the zero bound).
__attribute__((target("avx2"))) inline __m128i quantize4(
    const Lanes& l, const Block8x8& coeffs, QuantBlock& levels, int i) {
  __m128i* dst = reinterpret_cast<__m128i*>(levels.data() + i);
  const __m256d c = _mm256_loadu_pd(coeffs.data() + i);
  const __m256d live =
      _mm256_cmp_pd(_mm256_andnot_pd(l.sign, c), l.zero_bound, _CMP_GT_OQ);
  if (_mm256_movemask_pd(live) == 0) {
    _mm_storeu_si128(dst, _mm_setzero_si128());
    return _mm_setzero_si128();
  }
  const __m256d x = _mm256_div_pd(c, l.step);
  const __m128i t = _mm256_cvttpd_epi32(x);
  const __m256d frac = _mm256_sub_pd(x, _mm256_cvtepi32_pd(t));
  // A true mask lane is -1: subtracting it adds one.
  const __m128i level = _mm_add_epi32(
      _mm_sub_epi32(t, to_i32(_mm256_cmp_pd(frac, l.half, _CMP_GE_OQ))),
      to_i32(_mm256_cmp_pd(frac, l.neg_half, _CMP_LE_OQ)));
  _mm_storeu_si128(dst, level);
  return level;
}

/// Bits 0..3 set where the lanes of `level` are nonzero.
__attribute__((target("avx2"))) inline std::uint64_t nonzero4(__m128i level) {
  const int zero = _mm_movemask_ps(
      _mm_castsi128_ps(_mm_cmpeq_epi32(level, _mm_setzero_si128())));
  return static_cast<std::uint64_t>(~zero & 0xF);
}

// The scan kernel sums each level's signed Exp-Golomb length in lanes.
// For l != 0 that length is 2 * floor(log2 |l|) + 3, and floor(log2 |l|)
// is the unbiased exponent of |l| as a double, which holds every int32
// exactly: the lane's biased exponent e gives 2 * e - 2043 bits, and a
// zero level (+0.0, biased exponent 0) adds nothing to the lane sum. The
// zero runs are read off the scan mask's set bits, as the scalar kernel
// does.
__attribute__((target("avx2"))) int quantize_scan_bits_avx2(
    const Block8x8& scan_coeffs, int qp, QuantBlock& levels,
    std::uint64_t& scan) {
  const Lanes l = lanes_of(qp);
  std::uint64_t nonzero = 0;
  __m256i exponents = _mm256_setzero_si256();
  for (int i = 0; i < 64; i += 4) {
    const __m128i level = quantize4(l, scan_coeffs, levels, i);
    nonzero |= nonzero4(level) << i;
    const __m256d magnitude =
        _mm256_andnot_pd(l.sign, _mm256_cvtepi32_pd(level));
    exponents = _mm256_add_epi64(
        exponents, _mm256_srli_epi64(_mm256_castpd_si256(magnitude), 52));
  }
  scan = nonzero;
  if (nonzero == 0) return 0;
  const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(exponents),
                                     _mm256_extracti128_si256(exponents, 1));
  const auto exponent_sum = static_cast<int>(
      _mm_cvtsi128_si64(_mm_add_epi64(pair, _mm_unpackhi_epi64(pair, pair))));
  const int count = std::popcount(nonzero);
  int bits = BitWriter::ue_bits(static_cast<std::uint32_t>(count)) +
             2 * exponent_sum - 2043 * count;
  for (int next = 0; nonzero != 0; nonzero &= nonzero - 1) {
    const int pos = std::countr_zero(nonzero);
    bits += BitWriter::ue_bits(static_cast<std::uint32_t>(pos - next));
    next = pos + 1;
  }
  return bits;
}

#endif  // DIVE_SIMD_X86

}  // namespace

int quantize_scan_bits(const Block8x8& scan_coeffs, int qp,
                       QuantBlock& levels, std::uint64_t& scan) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2())
    return quantize_scan_bits_avx2(scan_coeffs, qp, levels, scan);
#endif
  return quantize_scan_bits_scalar(scan_coeffs, qp, levels, scan);
}

void dequantize(const QuantBlock& levels, int qp, Block8x8& coeffs) {
  const double step = quant_step(qp).step;
  for (int i = 0; i < 64; ++i) {
    coeffs[static_cast<std::size_t>(i)] =
        static_cast<double>(levels[static_cast<std::size_t>(i)]) * step;
  }
}

}  // namespace dive::codec
