// Differential check of the table-driven quantizer and the fused
// scan-order quantize-and-size kernel: levels must equal the libm
// definition the codec has always used,
// |c| <= step/6 ? 0 : lround(c / step) with step = 0.625 * 2^(qp/6), at
// every QP, and so must plain lround(c / step), because round-to-nearest
// already zeroes every |c| below step/2: the step/6 dead zone never
// decided a level. quantize_scan_bits, run on a block permuted into
// zigzag scan order, must give quantize_scalar's levels in scan order,
// their nonzero mask moved to scan positions, and the length of what the
// 64-position write_block_reference emits for them; write_block, driven
// by that mask, must emit those bits exactly and read back as the same
// levels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
    const double zero_bound = quant_step(qp).zero_bound;
    EXPECT_EQ(zero_bound, 0.5 * reference_step(qp) * (1.0 - 0x1p-40))
        << "qp " << qp;
    EXPECT_LT(zero_bound, reference_step(qp) / 2.0) << "qp " << qp;
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
      std::uint64_t nonzero = 0;
      quantize_scan_bits(coeffs, qp, levels, nonzero);
      for (std::size_t i = 0; i < 64; ++i) {
        const std::int32_t want = reference_level(coeffs[i], qp);
        ASSERT_EQ(levels[i], want)
            << "qp " << qp << " c " << coeffs[i];
        ASSERT_EQ((nonzero >> i) & 1U, want != 0 ? 1U : 0U);
      }
    }
  }
}

TEST(QuantDifferential, DeadZoneNeverDecidesALevel) {
  util::Rng rng(15);
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    const double step = reference_step(qp);
    const std::vector<double> values = probe_values(qp, rng);
    for (std::size_t first = 0; first < values.size(); first += 64) {
      Block8x8 coeffs{};
      for (std::size_t i = 0; i < 64 && first + i < values.size(); ++i)
        coeffs[i] = values[first + i];
      QuantBlock levels;
      std::uint64_t scan = 0;
      quantize_scan_bits(coeffs, qp, levels, scan);
      for (std::size_t i = 0; i < 64; ++i) {
        const auto plain =
            static_cast<std::int32_t>(std::lround(coeffs[i] / step));
        ASSERT_EQ(levels[i], plain) << "qp " << qp << " c " << coeffs[i];
        ASSERT_EQ(reference_level(coeffs[i], qp), plain)
            << "qp " << qp << " c " << coeffs[i];
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

/// The raster nonzero mask `raster` (bit i for levels[i]) moved to zigzag
/// scan positions.
std::uint64_t zigzag_scan(std::uint64_t raster) {
  const auto& zz = zigzag_order();
  std::uint64_t scan = 0;
  for (std::size_t k = 0; k < 64; ++k)
    scan |= ((raster >> zz[k]) & 1U) << k;
  return scan;
}

/// Runs both scan kernels on `raster` permuted into scan order and checks
/// them against the references: lround(c / step) and quantize_scalar's
/// levels, its mask moved to scan positions, write_block_reference's
/// length and bytes, and a read_block round trip.
void check_scan_kernels(const Block8x8& raster, int qp) {
  const auto& zz = zigzag_order();
  QuantBlock want;
  const std::uint64_t raster_mask = quantize_scalar(raster, qp, want);
  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_EQ(want[i], reference_level(raster[i], qp)) << "c " << raster[i];
  BitWriter bw;
  BitCounter bc;
  if (raster_mask != 0) {
    write_block_reference(bw, want);
    write_block_reference(bc, want);
    ASSERT_EQ(bc.bit_count(), bw.bit_count());
  }
  const std::vector<std::uint8_t> want_bytes = bw.finish();

  Block8x8 scan_coeffs;
  to_scan_order(raster, scan_coeffs);
  for (const auto kernel : {&quantize_scan_bits, &quantize_scan_bits_scalar}) {
    SCOPED_TRACE(kernel == &quantize_scan_bits ? "dispatched" : "scalar");
    QuantBlock levels;
    std::uint64_t scan = ~std::uint64_t{0};
    const int bits = kernel(scan_coeffs, qp, levels, scan);
    for (std::size_t k = 0; k < 64; ++k)
      ASSERT_EQ(levels[k], want[static_cast<std::size_t>(zz[k])])
          << "scan position " << k;
    ASSERT_EQ(scan, zigzag_scan(raster_mask));
    ASSERT_EQ(static_cast<std::size_t>(bits), bc.bit_count());
    if (scan == 0) continue;

    // The mask-driven writer emits the reference's bits exactly, into
    // either sink, and they read back as the same levels.
    BitWriter masked;
    write_block(masked, levels, scan);
    BitCounter masked_count;
    write_block(masked_count, levels, scan);
    ASSERT_EQ(masked_count.bit_count(), static_cast<std::size_t>(bits));
    const std::vector<std::uint8_t> got = masked.finish();
    ASSERT_EQ(got, want_bytes);
    BitReader br(got);
    QuantBlock read;
    read_block(br, read);
    ASSERT_EQ(read, want);
    ASSERT_EQ(br.bits_consumed(), static_cast<std::size_t>(bits));
    QuantBlock back;
    scan_levels_to_raster(levels, scan, back);
    ASSERT_EQ(back, want);
  }
}

/// Blocks that put `v` and -v where a four-lane group holds nothing else:
/// the whole block, and alone at the first and the last scan position.
std::vector<Block8x8> lone_value_blocks(double v) {
  const auto& zz = zigzag_order();
  std::vector<Block8x8> blocks;
  for (const double c : {v, -v}) {
    Block8x8 b{};
    b.fill(c);
    blocks.push_back(b);
    for (const std::size_t k : {std::size_t{0}, std::size_t{63}}) {
      Block8x8 one{};
      one[static_cast<std::size_t>(zz[k])] = c;
      blocks.push_back(one);
    }
  }
  return blocks;
}

TEST(QuantDifferential, FusedBlockBitsEqualWrittenBlockLength) {
  util::Rng rng(16);
  constexpr int kRandomTrials = 40;
  constexpr int kEdgeTrials = 5;
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    SCOPED_TRACE("qp " + std::to_string(qp));
    const double step = reference_step(qp);
    std::vector<Block8x8> blocks;
    // From all-zero through sparse to dense blocks: each coefficient is
    // live with a per-block probability. Then the edge shapes.
    for (int trial = 0; trial < kRandomTrials; ++trial) {
      const double live = trial / (kRandomTrials - 1.0);
      Block8x8 coeffs{};
      for (auto& c : coeffs)
        if (rng.chance(live)) c = rng.uniform(-2100, 2100) * rng.uniform(0, 1);
      blocks.push_back(coeffs);
    }
    for (int kind = 0; kind < kEdgeTrials; ++kind)
      blocks.push_back(edge_block(kind, qp));
    // The rounding boundaries, 64 to a block.
    std::vector<double> values = probe_values(qp, rng);
    // Levels 2^k - 1, 2^k and 2^k + 1: where an Exp-Golomb length steps.
    for (int k = 0; k <= 30; ++k) {
      for (const double level :
           {std::ldexp(1.0, k) - 1.0, std::ldexp(1.0, k), std::ldexp(1.0, k) + 1.0}) {
        values.push_back(level * step);
        values.push_back(-level * step);
      }
    }
    for (std::size_t first = 0; first < values.size(); first += 64) {
      Block8x8 coeffs{};
      for (std::size_t i = 0; i < 64 && first + i < values.size(); ++i)
        coeffs[i] = values[first + i];
      blocks.push_back(coeffs);
    }
    // The tie at step/2, which rounds to +-1, and the zero bound, each
    // with its nextafter neighbours, alone in their four-lane groups.
    const double zero_bound = quant_step(qp).zero_bound;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double edge : {step / 2.0, zero_bound})
      for (const double v :
           {edge, std::nextafter(edge, 0.0), std::nextafter(edge, kInf)})
        for (const Block8x8& b : lone_value_blocks(v)) blocks.push_back(b);

    for (std::size_t i = 0; i < blocks.size(); ++i) {
      SCOPED_TRACE("block " + std::to_string(i));
      check_scan_kernels(blocks[i], qp);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dive::codec
