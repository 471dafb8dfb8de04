// Runtime-dispatched sum-of-squared-errors kernels for PSNR/MSE
// accumulation (video/image_ops.h).
//
// Same contract and dispatch scheme as codec/sad_kernels.h: the scalar
// kernel is the canonical reference and every SIMD variant must return
// the exact same integer sum for the same inputs (squared differences of
// u8 are integers, and the u64 accumulator cannot overflow for any
// realistic plane — 2^64 / 255^2 pixels is ~280 petapixels). The
// kernel follows the process-wide SIMD level of util/simd.h.
//
// Kernels operate on contiguous byte spans: planes store their pixels
// densely, so PSNR over a plane is one call — no stride plumbing needed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace dive::video {

/// Which concrete kernel backs sse_u8_fn(): the process's SIMD level.
using SseKernel = util::SimdLevel;
using util::to_string;

/// Sum of squared differences between `n` bytes at `a` and `b`.
using SseU8Fn = std::uint64_t (*)(const std::uint8_t* a,
                                  const std::uint8_t* b, std::size_t n);

/// Canonical scalar kernel (the reference all SIMD paths must match).
std::uint64_t sse_u8_scalar(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t n);

/// The kernel dispatch resolved for this process (see file comment).
SseKernel active_sse_kernel();

/// Function pointer matching active_sse_kernel().
SseU8Fn sse_u8_fn();

}  // namespace dive::video
