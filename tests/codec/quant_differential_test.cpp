// Differential check of the table-driven quantizer and the fused
// quantize-and-count pass: levels must equal the libm definition the
// codec has always used, |c| <= step/6 ? 0 : lround(c / step) with
// step = 0.625 * 2^(qp/6), at every QP; and the counted block size must
// equal what write_block emits for the same levels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "codec/bitstream.h"
#include "codec/block_io.h"
#include "codec/quant.h"
#include "util/rng.h"

namespace dive::codec {
namespace {

/// The reference step, evaluated by libm at run time (the volatile keeps
/// the compiler from folding pow at compile time instead).
double reference_step(int qp) {
  volatile double q = qp;
  return 0.625 * std::pow(2.0, q / 6.0);
}

std::int32_t reference_level(double c, int qp) {
  const double step = reference_step(qp);
  if (std::abs(c) <= step / 6.0) return 0;
  return static_cast<std::int32_t>(std::lround(c / step));
}

/// Coefficients at and around every rounding boundary of `qp`: the dead
/// zone edge ±step/6 and the ties ±(k + 0.5) * step, each with its
/// nextafter neighbours, plus uniform draws in ±2100.
std::vector<double> probe_values(int qp, util::Rng& rng) {
  const double step = reference_step(qp);
  std::vector<double> edges = {0.0, step / 6.0};
  for (int k = 0; k < 64; ++k) edges.push_back((k + 0.5) * step);
  for (int i = 0; i < 64; ++i)
    edges.push_back((rng.uniform_int(0, static_cast<int>(2100 / step)) + 0.5) *
                    step);
  std::vector<double> values;
  for (const double e : edges)
    for (const double v : {e, std::nextafter(e, 0.0), std::nextafter(e, 1e9)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  for (int i = 0; i < 512; ++i) values.push_back(rng.uniform(-2100, 2100));
  return values;
}

TEST(QuantDifferential, StepTableMatchesLibm) {
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    EXPECT_EQ(qp_step(qp), reference_step(qp)) << "qp " << qp;
    EXPECT_EQ(quant_step(qp).deadzone, reference_step(qp) / 6.0) << "qp " << qp;
  }
}

TEST(QuantDifferential, QuantizeMatchesLroundReferenceAtEveryQp) {
  util::Rng rng(15);
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    const std::vector<double> values = probe_values(qp, rng);
    for (std::size_t first = 0; first < values.size(); first += 64) {
      Block8x8 coeffs{};
      for (std::size_t i = 0; i < 64 && first + i < values.size(); ++i)
        coeffs[i] = values[first + i];
      QuantBlock levels;
      const std::uint64_t nonzero = quantize(coeffs, qp, levels);
      for (std::size_t i = 0; i < 64; ++i) {
        const std::int32_t want = reference_level(coeffs[i], qp);
        ASSERT_EQ(levels[i], want)
            << "qp " << qp << " c " << coeffs[i];
        ASSERT_EQ((nonzero >> i) & 1U, want != 0 ? 1U : 0U);
      }
    }
  }
}

TEST(QuantDifferential, FusedBlockBitsEqualWrittenBlockLength) {
  util::Rng rng(16);
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    for (int trial = 0; trial < 40; ++trial) {
      // From all-zero through sparse to dense blocks: each coefficient is
      // live with a per-block probability.
      const double live = trial / 39.0;
      Block8x8 coeffs{};
      for (auto& c : coeffs)
        if (rng.chance(live)) c = rng.uniform(-2100, 2100) * rng.uniform(0, 1);
      QuantBlock plain;
      QuantBlock fused;
      const bool coded = quantize(coeffs, qp, plain) != 0;
      const int bits = quantize_block_bits(coeffs, qp, fused);
      ASSERT_EQ(fused, plain) << "qp " << qp;
      if (!coded) {
        EXPECT_EQ(bits, 0);
        continue;
      }
      BitWriter bw;
      write_block(bw, plain);
      BitCounter bc;
      write_block(bc, plain);
      ASSERT_EQ(static_cast<std::size_t>(bits), bw.bit_count())
          << "qp " << qp << " trial " << trial;
      ASSERT_EQ(bc.bit_count(), bw.bit_count());
    }
  }
}

}  // namespace
}  // namespace dive::codec
