#include "codec/dct.h"

#include <cmath>
#include <numbers>

#include "util/simd.h"

#if defined(DIVE_SIMD_X86)
#include <immintrin.h>
#endif

namespace dive::codec {

namespace {

/// cos((2x+1) u pi / 16) basis, and orthonormal scale factors.
struct DctTables {
  double basis[8][8];  // [u][x]
  double scale[8];
  double basis_t[8][8];  // [x][u], for lanes over u

  DctTables() {
    for (int u = 0; u < 8; ++u) {
      scale[u] = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x) {
        basis[u][x] = std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
        basis_t[x][u] = basis[u][x];
      }
    }
  }
};

const DctTables& tables() {
  static const DctTables t;
  return t;
}

void dct_1d(const double* in, double* out, int stride_in, int stride_out) {
  const auto& t = tables();
  for (int u = 0; u < 8; ++u) {
    double acc = 0.0;
    for (int x = 0; x < 8; ++x) acc += in[x * stride_in] * t.basis[u][x];
    out[u * stride_out] = acc * t.scale[u];
  }
}

void idct_1d(const double* in, double* out, int stride_in, int stride_out) {
  const auto& t = tables();
  for (int x = 0; x < 8; ++x) {
    double acc = 0.0;
    for (int u = 0; u < 8; ++u)
      acc += t.scale[u] * in[u * stride_in] * t.basis[u][x];
    out[x * stride_out] = acc;
  }
}

#if defined(DIVE_SIMD_X86)

// Each output element is the scalar chain above, run in one lane: the
// accumulator starts at +0.0, products are added in ascending x (or u)
// order, and the forward scale multiplies last. IEEE multiplication
// commutes exactly, so which operand is broadcast changes nothing. The
// target is avx2 alone, never fma, so no multiply and add are fused.

__attribute__((target("avx2"))) void forward_dct_avx2(const Block8x8& input,
                                                       Block8x8& output) {
  const auto& t = tables();
  const double* in = input.data();
  double* out = output.data();
  alignas(32) double tmp[64];
  // Rows: lanes over u, the input sample broadcast against basis_t[x].
  const __m256d s0 = _mm256_loadu_pd(&t.scale[0]);
  const __m256d s1 = _mm256_loadu_pd(&t.scale[4]);
  for (int r = 0; r < 8; ++r) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (int x = 0; x < 8; ++x) {
      const __m256d v = _mm256_broadcast_sd(in + r * 8 + x);
      const double* b = t.basis_t[x];
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(v, _mm256_loadu_pd(b)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(v, _mm256_loadu_pd(b + 4)));
    }
    _mm256_store_pd(tmp + r * 8, _mm256_mul_pd(a0, s0));
    _mm256_store_pd(tmp + r * 8 + 4, _mm256_mul_pd(a1, s1));
  }
  // Columns: lanes over columns, basis[u][x] broadcast against row x.
  for (int u = 0; u < 8; ++u) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (int x = 0; x < 8; ++x) {
      const __m256d b = _mm256_broadcast_sd(&t.basis[u][x]);
      const double* row = tmp + x * 8;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_load_pd(row), b));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_load_pd(row + 4), b));
    }
    const __m256d s = _mm256_broadcast_sd(&t.scale[u]);
    _mm256_storeu_pd(out + u * 8, _mm256_mul_pd(a0, s));
    _mm256_storeu_pd(out + u * 8 + 4, _mm256_mul_pd(a1, s));
  }
}

__attribute__((target("avx2"))) void inverse_dct_avx2(const Block8x8& input,
                                                       Block8x8& output) {
  const auto& t = tables();
  const double* in = input.data();
  double* out = output.data();
  // Columns: lanes over columns. scale[u] * (input row u) is the same
  // product for every output row x, so it is formed once per u.
  __m256d c0[8], c1[8];
  for (int u = 0; u < 8; ++u) {
    const __m256d s = _mm256_broadcast_sd(&t.scale[u]);
    c0[u] = _mm256_mul_pd(s, _mm256_loadu_pd(in + u * 8));
    c1[u] = _mm256_mul_pd(s, _mm256_loadu_pd(in + u * 8 + 4));
  }
  alignas(32) double tmp[64];
  for (int x = 0; x < 8; ++x) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (int u = 0; u < 8; ++u) {
      const __m256d b = _mm256_broadcast_sd(&t.basis[u][x]);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(c0[u], b));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(c1[u], b));
    }
    _mm256_store_pd(tmp + x * 8, a0);
    _mm256_store_pd(tmp + x * 8 + 4, a1);
  }
  // Rows: lanes over x, scale[u] * tmp[r][u] broadcast against
  // basis[u][x..x+3].
  const __m256d s0 = _mm256_loadu_pd(&t.scale[0]);
  const __m256d s1 = _mm256_loadu_pd(&t.scale[4]);
  for (int r = 0; r < 8; ++r) {
    alignas(32) double st[8];
    const double* row = tmp + r * 8;
    _mm256_store_pd(st, _mm256_mul_pd(s0, _mm256_load_pd(row)));
    _mm256_store_pd(st + 4, _mm256_mul_pd(s1, _mm256_load_pd(row + 4)));
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    for (int u = 0; u < 8; ++u) {
      const __m256d v = _mm256_broadcast_sd(st + u);
      const double* b = t.basis[u];
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(v, _mm256_loadu_pd(b)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(v, _mm256_loadu_pd(b + 4)));
    }
    _mm256_storeu_pd(out + r * 8, a0);
    _mm256_storeu_pd(out + r * 8 + 4, a1);
  }
}

#endif  // DIVE_SIMD_X86

}  // namespace

void forward_dct_scalar(const Block8x8& input, Block8x8& output) {
  Block8x8 tmp;
  for (int r = 0; r < 8; ++r) dct_1d(&input[r * 8], &tmp[r * 8], 1, 1);
  for (int c = 0; c < 8; ++c) dct_1d(&tmp[c], &output[c], 8, 8);
}

void inverse_dct_scalar(const Block8x8& input, Block8x8& output) {
  Block8x8 tmp;
  for (int c = 0; c < 8; ++c) idct_1d(&input[c], &tmp[c], 8, 8);
  for (int r = 0; r < 8; ++r) idct_1d(&tmp[r * 8], &output[r * 8], 1, 1);
}

void forward_dct(const Block8x8& input, Block8x8& output) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2()) return forward_dct_avx2(input, output);
#endif
  forward_dct_scalar(input, output);
}

void inverse_dct(const Block8x8& input, Block8x8& output) {
#if defined(DIVE_SIMD_X86)
  if (util::simd_avx2()) return inverse_dct_avx2(input, output);
#endif
  inverse_dct_scalar(input, output);
}

}  // namespace dive::codec
