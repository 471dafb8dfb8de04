#include "codec/quant.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/rng.h"

namespace dive::codec {
namespace {

TEST(Quant, StepDoublesEverySixQp) {
  EXPECT_DOUBLE_EQ(qp_step(0), 0.625);
  EXPECT_NEAR(qp_step(6), 1.25, 1e-12);
  EXPECT_NEAR(qp_step(12), 2.5, 1e-12);
  EXPECT_NEAR(qp_step(24) / qp_step(18), 2.0, 1e-12);
}

TEST(Quant, ClampsQpRange) {
  EXPECT_DOUBLE_EQ(qp_step(-10), qp_step(kMinQp));
  EXPECT_DOUBLE_EQ(qp_step(100), qp_step(kMaxQp));
}

TEST(Quant, RoundTripErrorBounded) {
  util::Rng rng(2);
  for (int qp : {0, 12, 24, 36, 51}) {
    Block8x8 coeffs;
    for (auto& c : coeffs) c = rng.uniform(-500, 500);
    QuantBlock levels;
    std::uint64_t scan = 0;
    quantize_scan_bits(coeffs, qp, levels, scan);
    Block8x8 recon;
    dequantize(levels, qp, recon);
    const double step = qp_step(qp);
    for (int i = 0; i < 64; ++i) {
      EXPECT_LE(std::abs(recon[static_cast<std::size_t>(i)] -
                         coeffs[static_cast<std::size_t>(i)]),
                step * 0.51 + 1e-9)
          << "qp=" << qp;
    }
  }
}

TEST(Quant, DeadZoneSuppressesSmallCoefficients) {
  Block8x8 coeffs{};
  coeffs[5] = qp_step(24) / 8.0;  // rounds to level 0
  QuantBlock levels;
  std::uint64_t scan = 1;
  EXPECT_EQ(quantize_scan_bits(coeffs, 24, levels, scan), 0);
  EXPECT_EQ(scan, 0u);
  EXPECT_EQ(levels, QuantBlock{});
}

TEST(Quant, HigherQpCoarserLevels) {
  Block8x8 coeffs;
  util::Rng rng(7);
  for (auto& c : coeffs) c = rng.uniform(-200, 200);
  QuantBlock lo, hi;
  std::uint64_t scan = 0;
  quantize_scan_bits(coeffs, 10, lo, scan);
  quantize_scan_bits(coeffs, 40, hi, scan);
  long lo_energy = 0, hi_energy = 0;
  for (int i = 0; i < 64; ++i) {
    lo_energy += std::abs(lo[static_cast<std::size_t>(i)]);
    hi_energy += std::abs(hi[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(lo_energy, hi_energy * 4);
}

TEST(Zigzag, IsAPermutation) {
  const auto& zz = zigzag_order();
  std::set<int> seen(zz.begin(), zz.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 63);
}

TEST(Zigzag, StartsLowFrequency) {
  const auto& zz = zigzag_order();
  EXPECT_EQ(zz[0], 0);       // DC first
  EXPECT_EQ(zz[1], 1);       // (0,1)
  EXPECT_EQ(zz[2], 8);       // (1,0)
  EXPECT_EQ(zz[63], 63);     // highest frequency last
}

}  // namespace
}  // namespace dive::codec
