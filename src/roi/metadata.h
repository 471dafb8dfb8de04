// RoiMetadata: the compressed-domain sidecar of one encoded frame.
//
// DiVE's agent computes a per-macroblock motion field, per-MB SKIP flags,
// and per-object foreground hulls to drive QP assignment — all of it free
// by the time the frame is encoded. This module packages that metadata
// into a compact byte lane that travels with the bitstream through
// net::Uplink, so the edge can gate inference on it (edge/gate.h). The
// video bytes are untouched. The sidecar is sent on top of the encoder's
// byte target, so with the lane on the upload runs above the estimated
// rate.
//
// Everything is stored in integer domain — half-pel motion vectors,
// 1/16-pixel fixed-point hull vertices, 0/1 skip flags — so
// parse(serialize(m)) == m holds bit-exactly, which the differential
// suite locks down.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codec/encoder.h"
#include "codec/types.h"
#include "geom/vec.h"

namespace dive::roi {

/// Fixed-point shift for hull vertex coordinates: 4 bits = 1/16 pixel,
/// far below the macroblock granularity the hulls were built from.
constexpr int kHullFracBits = 4;

/// Hull vertex in 1/16-pixel fixed point.
struct HullPoint {
  std::int32_t x = 0;
  std::int32_t y = 0;

  bool operator==(const HullPoint&) const = default;

  [[nodiscard]] geom::Vec2 as_vec2() const {
    constexpr double kScale = 1.0 / (1 << kHullFracBits);
    return {static_cast<double>(x) * kScale, static_cast<double>(y) * kScale};
  }
  static HullPoint from_vec2(geom::Vec2 p);
};

/// One foreground region: convex hull + mean motion, both quantized.
struct RoiRegion {
  std::vector<HullPoint> hull;    ///< convex contour, 1/16-px fixed point
  codec::MotionVector mean_mv;    ///< mean region motion, half-pel units

  bool operator==(const RoiRegion&) const = default;

  /// Hull in pixel coordinates (for point-in-polygon tests).
  [[nodiscard]] std::vector<geom::Vec2> hull_px() const;
};

/// Sidecar metadata of one encoded frame.
struct RoiMetadata {
  int mb_cols = 0;
  int mb_rows = 0;
  /// Coded motion field, row-major mb_cols x mb_rows (empty for intra
  /// frames — the codec has no inter field to ship).
  std::vector<codec::MotionVector> mvs;
  /// Per-MB SKIP flags, 0/1, row-major (empty when the frame carried
  /// none, e.g. intra).
  std::vector<std::uint8_t> skip;
  /// Foreground hull regions from the agent's FE stage.
  std::vector<RoiRegion> regions;

  bool operator==(const RoiMetadata&) const = default;

  [[nodiscard]] bool has_motion() const { return !mvs.empty(); }
  [[nodiscard]] int width() const { return mb_cols * codec::kMacroblockSize; }
  [[nodiscard]] int height() const { return mb_rows * codec::kMacroblockSize; }

  /// Rebuilds a MotionField (SAD costs zeroed — they are not shipped).
  /// Zero field when has_motion() is false.
  [[nodiscard]] codec::MotionField motion_field() const;

  /// Compact wire form: varint/zigzag integers, bit-packed skip flags,
  /// delta-coded hull vertices. serialize() then parse() is bit-exact.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<RoiMetadata> parse(std::span<const std::uint8_t> bytes);
};

/// Seeds a sidecar from one encoded frame's free compression metadata
/// (coded MV field + SKIP flags). `width`/`height` pin the MB grid even
/// when the frame is intra (empty field).
[[nodiscard]] RoiMetadata from_encoded(const codec::EncodedFrame& encoded,
                                       int width, int height);

/// Appends one foreground region (quantizing hull + mean MV). Degenerate
/// hulls (< 3 vertices) are kept verbatim — the gate ignores them, but
/// the wire format must round-trip whatever the extractor produced.
void add_region(RoiMetadata& meta, const std::vector<geom::Vec2>& hull,
                geom::Vec2 mean_mv_px);

}  // namespace dive::roi
