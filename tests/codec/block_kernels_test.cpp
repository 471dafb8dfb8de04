// Differential verification of the dispatched per-block kernels — the
// forward and inverse DCT (codec/dct.h), the quantizer (codec/quant.h)
// and the u8 <-> double block conversions (codec/block_pixels.h) —
// against their canonical scalar references. The contract is EXACT
// equality of every output bit, compared with memcmp so that signed
// zeros count: the SIMD kernels perform the scalar IEEE operations in
// the scalar order, with no fused multiply-add. Under DIVE_FORCE_SCALAR=1
// or -DDIVE_DISABLE_SIMD=ON the dispatched path is the scalar one and the
// comparisons hold trivially.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "codec/block_pixels.h"
#include "codec/dct.h"
#include "codec/quant.h"
#include "util/rng.h"
#include "util/simd.h"

namespace dive::codec {
namespace {

bool same_bits(const Block8x8& a, const Block8x8& b) {
  return std::memcmp(a.data(), b.data(), sizeof(Block8x8)) == 0;
}

/// Random integer residuals in [-255, 255], the range of src - pred.
Block8x8 random_residual(util::Rng& rng) {
  Block8x8 b;
  for (auto& v : b) v = rng.uniform_int(-255, 255);
  return b;
}

/// A dequantized block as reconstruction sees it: a few nonzero levels
/// (low frequencies likelier) times the step of `qp`, zeros elsewhere.
Block8x8 sparse_dequantized(util::Rng& rng, int qp) {
  QuantBlock levels{};
  const int live = rng.uniform_int(0, 10);
  for (int k = 0; k < live; ++k) {
    const int i = rng.uniform_int(0, 63) * rng.uniform_int(0, 1);
    levels[static_cast<std::size_t>(i)] = rng.uniform_int(-60, 60);
  }
  Block8x8 deq;
  dequantize(levels, qp, deq);
  return deq;
}

void expect_dct_match(const Block8x8& in, const char* what) {
  Block8x8 want, got;
  forward_dct_scalar(in, want);
  forward_dct(in, got);
  ASSERT_TRUE(same_bits(got, want)) << "forward " << what;
  inverse_dct_scalar(in, want);
  inverse_dct(in, got);
  ASSERT_TRUE(same_bits(got, want)) << "inverse " << what;
}

TEST(BlockKernels, DispatchFollowsSimdPolicy) {
  const util::SimdLevel level = util::simd_level();
  EXPECT_EQ(util::simd_avx2(), level == util::SimdLevel::kAvx2);
  const char* force = std::getenv("DIVE_FORCE_SCALAR");
  if (force != nullptr && *force != '\0' && std::string_view(force) != "0") {
    EXPECT_EQ(level, util::SimdLevel::kScalar);
    return;
  }
#if defined(DIVE_SIMD_X86)
  // On an AVX2 host the block kernels must actually be reached.
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_TRUE(util::simd_avx2());
  }
#else
  EXPECT_FALSE(util::simd_avx2());
#endif
}

TEST(BlockKernels, DctMatchesScalarOnRandomResiduals) {
  util::Rng rng(41);
  for (int trial = 0; trial < 4096; ++trial)
    expect_dct_match(random_residual(rng), "random residual");
}

TEST(BlockKernels, DctMatchesScalarOnSparseDequantizedBlocksAtEveryQp) {
  util::Rng rng(42);
  for (int qp = kMinQp; qp <= kMaxQp; ++qp)
    for (int trial = 0; trial < 96; ++trial)
      expect_dct_match(sparse_dequantized(rng, qp), "sparse dequantized");
}

TEST(BlockKernels, DctMatchesScalarOnSignedZerosAndExtremes) {
  Block8x8 b{};
  expect_dct_match(b, "all +0.0");
  b.fill(-0.0);
  expect_dct_match(b, "all -0.0");
  b.fill(255.0);
  expect_dct_match(b, "flat 255");
  for (std::size_t i = 0; i < 64; ++i)
    b[i] = (i % 2 == 0 ? -0.0 : 0.0) + (i % 7 == 0 ? -255.0 : 0.0);
  expect_dct_match(b, "mixed zeros");
}

TEST(BlockKernels, QuantizeMatchesScalarAtEveryQp) {
  util::Rng rng(43);
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    const double step = qp_step(qp);
    for (int trial = 0; trial < 64; ++trial) {
      Block8x8 coeffs;
      if (trial % 2 == 0) {
        forward_dct_scalar(random_residual(rng), coeffs);
      } else {
        // Ties, zero-bound and old step/6 dead-zone edges and zeros,
        // some whole groups of 4 at or below the zero bound.
        for (auto& c : coeffs) {
          const double k = rng.uniform_int(-40, 40);
          const double edge =
              rng.chance(0.5) ? quant_step(qp).zero_bound : step / 6.0;
          const double e = rng.chance(0.5) ? (k + 0.5) * step : edge;
          c = rng.chance(0.3) ? 0.0 : std::nextafter(e, rng.uniform(-1, 1));
        }
      }
      QuantBlock want, got;
      const std::uint64_t want_nz = quantize_scalar(coeffs, qp, want);
      got.fill(-7);  // stale contents must be overwritten
      std::uint64_t got_nz = 0;
      quantize_scan_bits(coeffs, qp, got, got_nz);
      ASSERT_EQ(got, want) << "qp " << qp << " trial " << trial;
      ASSERT_EQ(got_nz, want_nz) << "qp " << qp << " trial " << trial;
    }
  }
}

constexpr int kStride = 13;  // odd, wider than a block

TEST(BlockKernels, LoadsMatchScalar) {
  util::Rng rng(44);
  std::vector<std::uint8_t> plane(static_cast<std::size_t>(kStride) * 8);
  for (int trial = 0; trial < 512; ++trial) {
    for (auto& p : plane)
      p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    plane[0] = 0;
    plane[1] = 255;
    Block8x8 pred;
    for (auto& v : pred) v = rng.chance(0.1) ? -0.0 : rng.uniform(-300, 300);
    Block8x8 want, got;
    load_block_u8_scalar(plane.data(), kStride, want);
    load_block_u8(plane.data(), kStride, got);
    ASSERT_TRUE(same_bits(got, want)) << "load, trial " << trial;
    residual_block_u8_scalar(plane.data(), kStride, pred, want);
    residual_block_u8(plane.data(), kStride, pred, got);
    ASSERT_TRUE(same_bits(got, want)) << "residual, trial " << trial;
  }
}

/// Stores `pred` (+ `res`) with both kernels into guarded planes and
/// checks they write the same pixels and nothing outside the block.
void expect_store_match(const Block8x8& pred, const Block8x8* res) {
  std::vector<std::uint8_t> want(static_cast<std::size_t>(kStride) * 8, 0xAB);
  std::vector<std::uint8_t> got = want;
  store_block_u8_scalar(pred, res, want.data(), kStride);
  store_block_u8(pred, res, got.data(), kStride);
  ASSERT_EQ(got, want) << (res != nullptr ? "pred + res" : "pred only");
  for (int y = 0; y < 8; ++y)
    for (int x = 8; x < kStride; ++x)
      ASSERT_EQ(got[static_cast<std::size_t>(y * kStride + x)], 0xAB);
}

TEST(BlockKernels, StoreMatchesScalarAtTheClampEdges) {
  const double edges[] = {
      -300.0, -1.0, -0.5, -std::numeric_limits<double>::denorm_min(), -0.0,
      0.0, std::numeric_limits<double>::denorm_min(), 0.5, 0.999999999999,
      127.5, 254.5, std::nextafter(255.0, 0.0), 254.99999999999997, 255.0,
      std::nextafter(255.0, 1e9), 255.5, 256.0, 1e6};
  constexpr std::size_t kEdges = sizeof(edges) / sizeof(edges[0]);
  util::Rng rng(45);
  for (int trial = 0; trial < 512; ++trial) {
    Block8x8 pred, res;
    for (std::size_t i = 0; i < 64; ++i) {
      pred[i] = trial % 2 == 0
                    ? edges[(i + static_cast<std::size_t>(trial)) % kEdges]
                    : rng.uniform(-20, 275);
      res[i] = rng.chance(0.2)
                   ? (rng.chance(0.5) ? -0.0 : 0.0)
                   : edges[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<int>(kEdges) - 1))] -
                         pred[i];
    }
    expect_store_match(pred, &res);
    expect_store_match(pred, nullptr);
    // An uncoded block stores what adding a zero residual stores.
    const Block8x8 zeros{};
    std::vector<std::uint8_t> bare(static_cast<std::size_t>(kStride) * 8);
    std::vector<std::uint8_t> plus_zero = bare;
    store_block_u8(pred, nullptr, bare.data(), kStride);
    store_block_u8_scalar(pred, &zeros, plus_zero.data(), kStride);
    ASSERT_EQ(bare, plus_zero) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dive::codec
