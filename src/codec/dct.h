// 8x8 type-II DCT / inverse DCT used as the codec's residual transform.
// Orthonormal formulation: applying forward then inverse reproduces the
// input up to rounding.
//
// Both transforms dispatch on the process's SIMD level (util/simd.h) to
// an AVX2 kernel that performs the scalar reference's IEEE operations in
// the same order, so every output bit — signed zeros included — equals
// the scalar result (DESIGN.md §11).
#pragma once

#include <array>

namespace dive::codec {

using Block8x8 = std::array<double, 64>;  ///< row-major 8x8 block

/// Forward 2-D DCT (orthonormal).
void forward_dct(const Block8x8& input, Block8x8& output);

/// Inverse 2-D DCT.
void inverse_dct(const Block8x8& input, Block8x8& output);

/// Canonical scalar transforms (the references the SIMD kernels match).
void forward_dct_scalar(const Block8x8& input, Block8x8& output);
void inverse_dct_scalar(const Block8x8& input, Block8x8& output);

}  // namespace dive::codec
