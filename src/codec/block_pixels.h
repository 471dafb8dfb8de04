// Conversions between u8 plane pixels and the double 8x8 blocks the
// transform works on: motion-compensated prediction loads (mc_predict),
// the encoder's src - pred residual, and reconstruction's clamp back to
// u8 (reconstruct_block).
//
// Each dispatches on the process's SIMD level (util/simd.h) to an AVX2
// kernel equal to its scalar reference bit for bit: u8 -> double and the
// subtraction are exact or single IEEE operations, and max(., 0),
// min(., 255) plus a truncating convert equal std::clamp plus the cast
// (DESIGN.md §11). Blocks are row-major; `stride` is the distance in
// bytes between pixel rows.
#pragma once

#include <cstdint>

#include "codec/dct.h"

namespace dive::codec {

/// out[y*8 + x] = src[y*stride + x].
void load_block_u8(const std::uint8_t* src, int stride, Block8x8& out);

/// out[y*8 + x] = src[y*stride + x] - pred[y*8 + x].
void residual_block_u8(const std::uint8_t* src, int stride,
                       const Block8x8& pred, Block8x8& out);

/// dst[y*stride + x] = pred + res, clamped to [0, 255] and truncated;
/// a null `res` (an uncoded block) stores the clamped prediction.
void store_block_u8(const Block8x8& pred, const Block8x8* res,
                    std::uint8_t* dst, int stride);

/// Canonical scalar conversions (the references the SIMD kernels match).
void load_block_u8_scalar(const std::uint8_t* src, int stride,
                          Block8x8& out);
void residual_block_u8_scalar(const std::uint8_t* src, int stride,
                              const Block8x8& pred, Block8x8& out);
void store_block_u8_scalar(const Block8x8& pred, const Block8x8* res,
                           std::uint8_t* dst, int stride);

}  // namespace dive::codec
