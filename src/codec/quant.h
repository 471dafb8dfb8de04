// Quantization (Sec. II-B step 2): maps DCT coefficients to integer
// levels under a QP-controlled step size, H.264-style: the step doubles
// every 6 QP. QP 0 is near-lossless; QP 51 obliterates texture.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>

#include "codec/dct.h"
#include "codec/types.h"

namespace dive::codec {

using QuantBlock = std::array<std::int32_t, 64>;

/// Step size and zero bound of one QP. The step is 0.625 * 2^(qp / 6).
/// Rounding c / step to nearest already zeroes every |c| below step/2,
/// so no dead zone decides a level. The zero bound,
/// 0.5 * step * (1 - 2^-40), lies far enough under step/2 that the IEEE
/// quotient of any |c| at or below it is under 0.5 as well, so such a
/// coefficient quantizes to 0 without its divide (DESIGN §11). A tie at
/// exactly step/2 lies above the bound and still quantizes to +-1.
struct QuantStep {
  double step = 0.0;
  double zero_bound = 0.0;
};

/// The step and zero bound of `qp` (clamped into [kMinQp, kMaxQp]), from
/// a table built once per process.
const QuantStep& quant_step(int qp);

/// Quantizer step size for a QP (clamped into [kMinQp, kMaxQp]).
inline double qp_step(int qp) { return quant_step(qp).step; }

/// Coefficients -> levels: c / step rounded to nearest with ties away
/// from zero, exactly std::lround(c / step) (|c / step| must be below
/// 2^31). Returns the nonzero levels as a mask over the block's indices
/// (bit i set when levels[i] != 0), so zero means nothing to code. The
/// canonical scalar quantizer: quantize_scan_bits' kernels equal it bit
/// for bit.
std::uint64_t quantize_scalar(const Block8x8& coeffs, int qp,
                              QuantBlock& levels);

/// quantize_scalar() of a block whose coefficients are in zigzag scan
/// order (to_scan_order), fused with sizing: fills `levels` (scan order)
/// and `scan`, the mask of its nonzero levels by scan position, and
/// returns the length in bits of write_block(levels, scan) (codec/
/// block_io.h), or 0 when every level is zero (the block is not coded).
/// Dispatches on the process's SIMD level (util/simd.h) to an AVX2
/// kernel equal to the scalar one bit for bit.
int quantize_scan_bits(const Block8x8& scan_coeffs, int qp,
                       QuantBlock& levels, std::uint64_t& scan);

/// Canonical scalar quantize_scan_bits: quantize_scalar, then each level
/// and zero run sized by BitWriter's Exp-Golomb lengths.
int quantize_scan_bits_scalar(const Block8x8& scan_coeffs, int qp,
                              QuantBlock& levels, std::uint64_t& scan);

/// Levels -> reconstructed coefficients.
void dequantize(const QuantBlock& levels, int qp, Block8x8& coeffs);

namespace detail {
constexpr std::array<int, 64> make_zigzag_order() {
  std::array<int, 64> o{};
  std::size_t idx = 0;
  for (int s = 0; s < 15; ++s) {
    if (s % 2 == 0) {
      // Walk up-right.
      for (int y = std::min(s, 7); y >= std::max(0, s - 7); --y)
        o[idx++] = y * 8 + (s - y);
    } else {
      for (int x = std::min(s, 7); x >= std::max(0, s - 7); --x)
        o[idx++] = (s - x) * 8 + x;
    }
  }
  return o;
}
inline constexpr std::array<int, 64> kZigzagOrder = make_zigzag_order();

template <std::size_t... K>
void to_scan_order(const Block8x8& raster, Block8x8& scan,
                   std::index_sequence<K...>) {
  ((scan[K] = raster[static_cast<std::size_t>(kZigzagOrder[K])]), ...);
}
}  // namespace detail

/// Zigzag scan order for an 8x8 block (low frequencies first): scan
/// position k holds raster index zigzag_order()[k].
constexpr const std::array<int, 64>& zigzag_order() {
  return detail::kZigzagOrder;
}

/// A raster block in zigzag scan order: scan[k] = raster[zigzag_order()[k]],
/// as 64 moves at constant offsets.
inline void to_scan_order(const Block8x8& raster, Block8x8& scan) {
  detail::to_scan_order(raster, scan, std::make_index_sequence<64>{});
}

/// Scan-order levels back at their raster indices: the levels at the set
/// bits of `scan` (their nonzero mask), zeros everywhere else. Only those
/// positions of `levels` are read.
inline void scan_levels_to_raster(const QuantBlock& levels,
                                  std::uint64_t scan, QuantBlock& raster) {
  raster.fill(0);
  for (; scan != 0; scan &= scan - 1) {
    const auto k = static_cast<std::size_t>(std::countr_zero(scan));
    raster[static_cast<std::size_t>(zigzag_order()[k])] = levels[k];
  }
}

}  // namespace dive::codec
