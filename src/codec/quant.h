// Quantization (Sec. II-B step 2): maps DCT coefficients to integer
// levels under a QP-controlled step size, H.264-style: the step doubles
// every 6 QP. QP 0 is near-lossless; QP 51 obliterates texture.
#pragma once

#include <array>
#include <cstdint>

#include "codec/dct.h"
#include "codec/types.h"

namespace dive::codec {

using QuantBlock = std::array<std::int32_t, 64>;

/// Step size and dead zone of one QP. The step is
/// 0.625 * 2^(qp / 6); the dead zone of 1/6 step suppresses near-zero
/// noise coefficients, which is what makes low-texture blocks cheap (and
/// their MVs noisy).
struct QuantStep {
  double step = 0.0;
  double deadzone = 0.0;
};

/// The step and dead zone of `qp` (clamped into [kMinQp, kMaxQp]), from a
/// table built once per process.
const QuantStep& quant_step(int qp);

/// Quantizer step size for a QP (clamped into [kMinQp, kMaxQp]).
inline double qp_step(int qp) { return quant_step(qp).step; }

/// Coefficients -> levels: 0 inside the dead zone, else c / step rounded
/// to nearest with ties away from zero (|c / step| must be below 2^31).
/// Returns the nonzero levels as a mask over raster indices (bit i set
/// when levels[i] != 0), so zero means nothing to code.
/// Dispatches on the process's SIMD level (util/simd.h) to an AVX2
/// kernel equal to the scalar one bit for bit.
std::uint64_t quantize(const Block8x8& coeffs, int qp, QuantBlock& levels);

/// Canonical scalar quantizer (the reference the SIMD kernel matches).
std::uint64_t quantize_scalar(const Block8x8& coeffs, int qp,
                              QuantBlock& levels);

/// Levels -> reconstructed coefficients.
void dequantize(const QuantBlock& levels, int qp, Block8x8& coeffs);

/// Zigzag scan order for an 8x8 block (low frequencies first).
const std::array<int, 64>& zigzag_order();

/// Inverse of zigzag_order(): the scan position of each raster index.
const std::array<int, 64>& zigzag_rank();

}  // namespace dive::codec
