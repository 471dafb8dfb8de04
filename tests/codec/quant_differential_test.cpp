// Differential check of the table-driven quantizer, the fused
// quantize-and-count pass and the mask-driven block writer: levels must
// equal the libm definition the codec has always used,
// |c| <= step/6 ? 0 : lround(c / step) with step = 0.625 * 2^(qp/6), at
// every QP; the counted block size must equal what the 64-position
// write_block_reference emits for the same levels; and write_block, driven
// by the zigzag mask the count built, must emit those bits exactly and
// read back as the same levels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
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

/// Block shapes past the random sweep: the last zigzag coefficient
/// alone, the first and the last, and every coefficient at the largest
/// level the quantizer allows (|c / step| just below 2^31), all positive,
/// all negative and alternating.
Block8x8 edge_block(int kind, int qp) {
  const auto& zz = zigzag_order();
  const double extreme = 2147483000.0 * reference_step(qp);
  Block8x8 coeffs{};
  switch (kind) {
    case 0: coeffs[static_cast<std::size_t>(zz[63])] = -extreme; break;
    case 1:
      coeffs[static_cast<std::size_t>(zz[0])] = extreme;
      coeffs[static_cast<std::size_t>(zz[63])] = extreme;
      break;
    case 2: coeffs.fill(extreme); break;
    case 3: coeffs.fill(-extreme); break;
    default:
      for (std::size_t i = 0; i < 64; ++i)
        coeffs[i] = i % 2 == 0 ? extreme : -extreme;
  }
  return coeffs;
}

TEST(QuantDifferential, FusedBlockBitsEqualWrittenBlockLength) {
  util::Rng rng(16);
  constexpr int kRandomTrials = 40;
  constexpr int kEdgeTrials = 5;
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    for (int trial = 0; trial < kRandomTrials + kEdgeTrials; ++trial) {
      // From all-zero through sparse to dense blocks: each coefficient is
      // live with a per-block probability. Then the edge shapes.
      Block8x8 coeffs{};
      if (trial < kRandomTrials) {
        const double live = trial / (kRandomTrials - 1.0);
        for (auto& c : coeffs)
          if (rng.chance(live))
            c = rng.uniform(-2100, 2100) * rng.uniform(0, 1);
      } else {
        coeffs = edge_block(trial - kRandomTrials, qp);
      }
      QuantBlock plain;
      QuantBlock fused;
      std::uint64_t scan = ~std::uint64_t{0};
      const std::uint64_t raster = quantize(coeffs, qp, plain);
      const int bits = quantize_block_bits(coeffs, qp, fused, scan);
      ASSERT_EQ(fused, plain) << "qp " << qp;
      // The intra path's mask: quantize's raster mask moved to zigzag.
      ASSERT_EQ(zigzag_scan(raster), scan) << "qp " << qp;
      if (raster == 0) {
        EXPECT_EQ(bits, 0);
        EXPECT_EQ(scan, 0U);
        continue;
      }
      SCOPED_TRACE("qp " + std::to_string(qp) + " trial " +
                   std::to_string(trial));
      BitWriter bw;
      write_block_reference(bw, plain);
      BitCounter bc;
      write_block_reference(bc, plain);
      ASSERT_EQ(static_cast<std::size_t>(bits), bw.bit_count());
      ASSERT_EQ(bc.bit_count(), bw.bit_count());

      // The mask-driven writer emits the reference's bits exactly, into
      // either sink, and they read back as the same levels.
      BitWriter masked;
      write_block(masked, plain, scan);
      BitCounter masked_count;
      write_block(masked_count, plain, scan);
      ASSERT_EQ(masked_count.bit_count(), bw.bit_count());
      const std::vector<std::uint8_t> want = bw.finish();
      const std::vector<std::uint8_t> got = masked.finish();
      ASSERT_EQ(got, want);
      BitReader br(got);
      QuantBlock read;
      read_block(br, read);
      ASSERT_EQ(read, plain);
      ASSERT_EQ(br.bits_consumed(), static_cast<std::size_t>(bits));
    }
  }
}

}  // namespace
}  // namespace dive::codec
