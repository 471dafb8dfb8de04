// RoiMetadata: the compressed-domain sidecar of one encoded frame.
//
// DiVE's agent extracts per-object foreground hulls to drive QP
// assignment; they are free by the time the frame is encoded. This
// module packages them, with the frame's MB grid, into a compact byte
// lane that travels with the bitstream through net::Uplink, so the edge
// can gate inference on it (edge/gate.h). Motion is not shipped — not
// the coded field, the SKIP flags or a region's mean motion: the edge
// parses the field and the flags from the bitstream it decodes
// (codec::DecodedFrame). The video bytes are untouched. The sidecar is
// sent on top of the encoder's byte target, so with the lane on the
// upload runs above the estimated rate.
//
// Hull vertices are stored in 1/16-pixel fixed point, so
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

/// One foreground region: its convex hull, quantized.
struct RoiRegion {
  std::vector<HullPoint> hull;  ///< convex contour, 1/16-px fixed point

  bool operator==(const RoiRegion&) const = default;

  /// Hull in pixel coordinates (for point-in-polygon tests).
  [[nodiscard]] std::vector<geom::Vec2> hull_px() const;
};

/// Sidecar metadata of one encoded frame.
struct RoiMetadata {
  /// MB grid of the frame the hulls belong to; the edge gates only when
  /// it matches the decoded frame's.
  int mb_cols = 0;
  int mb_rows = 0;
  /// Foreground hull regions from the agent's FE stage.
  std::vector<RoiRegion> regions;

  bool operator==(const RoiMetadata&) const = default;

  [[nodiscard]] int width() const { return mb_cols * codec::kMacroblockSize; }
  [[nodiscard]] int height() const { return mb_rows * codec::kMacroblockSize; }

  /// Compact wire form, version 2: magic 'R', version byte, varint
  /// mb_cols, mb_rows and region count; per region the vertex count and
  /// zigzag vertex deltas. serialize() then parse() is bit-exact; parse()
  /// rejects every other version.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<RoiMetadata> parse(std::span<const std::uint8_t> bytes);
};

/// Seeds the sidecar of one encoded frame: the MB grid of `width` x
/// `height`, no regions yet. Nothing is taken from `encoded` (its motion
/// and SKIP flags reach the edge inside the bitstream); the parameter
/// keeps the call sites that pair a sidecar with its frame unchanged.
[[nodiscard]] RoiMetadata from_encoded(const codec::EncodedFrame& encoded,
                                       int width, int height);

/// Appends one foreground region (quantizing its hull). Degenerate hulls
/// (< 3 vertices) are kept verbatim — the gate ignores them, but the wire
/// format must round-trip whatever the extractor produced. The region's
/// mean motion is not shipped; `mean_mv_px` keeps the call sites that
/// pass it unchanged.
void add_region(RoiMetadata& meta, const std::vector<geom::Vec2>& hull,
                geom::Vec2 mean_mv_px = {});

}  // namespace dive::roi
