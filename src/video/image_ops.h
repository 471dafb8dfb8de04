// Pixel-level utilities: distortion metrics, plane arithmetic, and simple
// drawing for example programs.
#pragma once

#include <cstdint>
#include <string>

#include "geom/box.h"
#include "video/frame.h"

namespace dive::video {

/// Integer sum of squared differences between two planes of identical
/// dimensions, accumulated by the dispatched SIMD kernel
/// (video/sse_kernels.h) — exact on every backend.
std::uint64_t plane_sse(const Plane& a, const Plane& b);

/// Mean squared error between two planes of identical dimensions.
double plane_mse(const Plane& a, const Plane& b);

/// Luma PSNR in dB (infinity-capped at 100 dB for identical planes).
double psnr_y(const Frame& a, const Frame& b);

/// Mean absolute luma difference — cheap frame-difference signal used by
/// key-frame selection in the baseline schemes.
double mean_abs_diff_y(const Frame& a, const Frame& b);

/// Average of a plane region (clamped to plane bounds).
double region_mean(const Plane& p, int x0, int y0, int x1, int y1);

/// Draw an axis-aligned box outline into the luma plane (examples only).
void draw_box(Frame& frame, const geom::Box& box, std::uint8_t luma = 255);

/// Serialize the luma plane as binary PGM (P5) for eyeballing output.
std::string to_pgm(const Plane& p);

}  // namespace dive::video
