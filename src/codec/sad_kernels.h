// Runtime-dispatched SAD kernels for the 16x16 motion-search hot loop.
//
// The scalar kernel is the canonical reference: every SIMD variant must
// return the exact same sum for the same inputs (SAD is integer, so this
// is achievable and enforced by the `differential` test label). The
// kernel follows the process-wide SIMD level of util/simd.h.
//
// Kernels operate on raw row pointers with independent strides so they
// serve full planes (stride == width, including odd widths), the padded
// reference planes (codec/ref_planes.h) and the encoder's on-demand
// 16x16 SKIP-check prediction. Blocks must lie fully inside their
// buffers; reading the reference through RefPlanes makes every search
// candidate — full-pel, half-pel, or at the border — such a block, so no
// candidate bypasses the kernel.
#pragma once

#include <cstdint>

#include "util/simd.h"

namespace dive::codec {

/// Which concrete kernel backs sad_16x16_fn(): the process's SIMD level.
using SadKernel = util::SimdLevel;
using util::to_string;

/// Per-searcher kernel policy (MotionSearchConfig::sad). kAuto uses the
/// process-wide dispatched kernel; kScalar pins the reference kernel so
/// scalar/SIMD cells can be compared inside one process.
enum class SadKernelPolicy : std::uint8_t { kAuto = 0, kScalar = 1 };

/// 16x16 sum of absolute differences between the block at `cur` (rows
/// `cur_stride` apart) and the block at `ref` (rows `ref_stride` apart).
using Sad16Fn = std::uint32_t (*)(const std::uint8_t* cur, int cur_stride,
                                  const std::uint8_t* ref, int ref_stride);

/// Canonical scalar kernel (the reference all SIMD paths must match).
std::uint32_t sad_16x16_scalar(const std::uint8_t* cur, int cur_stride,
                               const std::uint8_t* ref, int ref_stride);

/// The kernel dispatch resolved for this process (see file comment).
SadKernel active_sad_kernel();

/// Function pointer matching active_sad_kernel().
Sad16Fn sad_16x16_fn();

/// Resolves a policy to a concrete kernel function.
inline Sad16Fn resolve_sad_fn(SadKernelPolicy policy) {
  return policy == SadKernelPolicy::kScalar ? &sad_16x16_scalar
                                            : sad_16x16_fn();
}

}  // namespace dive::codec
