// Compressed-domain inference gating: the tile policy EdgeServer runs on
// a frame that arrives with an RoI sidecar (roi::RoiMetadata).
//
// The gate tiles the decoded frame, rasterizes the sidecar's foreground
// hulls (plus MBs the bitstream codes as moving and not SKIPped) into
// the tile grid, dilates by a halo, and runs the detector only on those
// tiles — the background is reset to neutral luma/chroma so the blob
// detector cannot fire there. Motion and SKIP come from the decoded
// frame itself, so the sidecar carries only the MB grid and the hulls.
// Background boxes from the previous frame are propagated by mean-MV
// shift (shift_by_mean_mv, the same primitive as the agent's MOT
// fallback). Full-frame inference remains the fallback when metadata is
// absent, its MB grid disagrees with the bitstream, foreground coverage
// exceeds a threshold, or the periodic refresh is due (bounds
// propagation staleness, which is what keeps gated mAP within points of
// full-frame).
//
// Both functions here are pure; the state they thread (the refresh
// counter and the previous frame's boxes) lives in EdgeServer, which
// advances it strictly in per-session frame order.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/decoder.h"
#include "edge/detection.h"
#include "edge/detector.h"
#include "roi/metadata.h"

namespace dive::edge {

/// Floor on the work fraction reported to the scheduler: decode and
/// dispatch overhead never vanish, however small the foreground.
inline constexpr double kMinWorkFraction = 0.15;
/// When the (post-halo) foreground tile fraction reaches this, gating
/// buys too little: fall back to full-frame inference.
inline constexpr double kMaxCoverage = 0.65;
/// A full-frame pass runs every N planned frames, starting with the
/// first. Bounds how stale propagated background boxes can get.
inline constexpr int kFullRefreshInterval = 12;
/// Tile rows centered on the horizon (image center row — the focus of
/// expansion for a level forward camera) that stay lit on every gated
/// frame. Distant objects enter the scene there as tiny blobs that move
/// with the background; no compressed-domain cue sees them on their
/// first frame, and a missed appearance costs a full false negative
/// until the scan stripe or refresh comes around.
inline constexpr int kHorizonRows = 1;

struct RoiGateConfig {
  /// Tile edge in luma pixels (frame edges may get partial tiles).
  int tile_px = 32;
  /// Dilation radius, in tiles, around every foreground tile — keeps
  /// object borders inside the detector's view.
  int halo_tiles = 1;
  /// A non-SKIP macroblock lights its tile when its MV deviates from the
  /// frame's component-wise median MV by more than this (half-pel L1).
  /// The median is the ego-motion estimate the compressed domain gives
  /// for free: raw MVs on a moving agent are dominated by camera motion,
  /// and gating on them directly would light the whole frame.
  int motion_deviation = 4;
  /// Rotating scan refresh: on every gated frame, additionally light the
  /// tile columns with (tx % scan_stripes == frame % scan_stripes), so
  /// every column is revisited at least every scan_stripes frames
  /// (0 = off). This is what discovers objects the compressed domain
  /// cannot see coming — appearing far-field objects move with the
  /// background until they are close, and a full refresh only looks
  /// every kFullRefreshInterval frames.
  int scan_stripes = 4;
};

/// How one frame will be inferred. The serving layer computes it at
/// admission so the scheduler can price gated work; `work` scales the
/// inference latency of every synchronous inference.
struct GatePlan {
  bool gated = false;  ///< false = full-frame inference
  int tile_cols = 0;
  int tile_rows = 0;
  std::vector<std::uint8_t> tiles;  ///< row-major; 1 = detector runs here
  double coverage = 1.0;        ///< post-halo foreground tile fraction
  double pixel_fraction = 1.0;  ///< detector pixels / frame pixels
  double work = 1.0;            ///< scheduler cost scale (floored fraction)
};

/// Inference outcome of one frame, gated or full-frame.
struct GatedDetections {
  DetectionList detections;  ///< fresh + propagated, merged
  int fresh = 0;       ///< boxes from the detector on foreground tiles
  int propagated = 0;  ///< background boxes carried by mean-MV shift
  bool gated = false;  ///< false when this frame ran full-frame
  /// Actual detector pixel fraction, including the tiles lit under held
  /// boxes at run time (>= the plan's estimate; 1.0 on full frames).
  double pixel_fraction = 1.0;
};

/// Lifetime accounting of one EdgeServer's plans and inferences
/// (monotonic; diff across calls for per-frame deltas).
struct GateStats {
  long planned = 0;           ///< plan() calls
  long gated = 0;             ///< frames inferred through tile gating
  long full = 0;              ///< frames inferred full-frame
  long propagated_boxes = 0;  ///< background boxes carried by MV shift
};

/// How the `frame`-th planned frame of a stream (counting from 0, the
/// refresh cadence's clock) is inferred. Hulls come from `meta`, motion
/// and SKIP flags from `decoded` (an intra frame has neither). `meta`
/// null, on another MB grid than `decoded`, or with neither hulls nor
/// motion => full-frame.
[[nodiscard]] GatePlan plan_gate(const RoiGateConfig& config,
                                 const roi::RoiMetadata* meta,
                                 const codec::DecodedFrame& decoded,
                                 long frame);

/// Gated inference on a decoded frame whose plan gates: the `held` boxes
/// of the previous frame ride the frame's motion field, the tiles under
/// them are lit on top of the plan's, the rest is masked out before
/// `detector` runs, and the carried boxes the detector did not re-find
/// are merged into its output.
[[nodiscard]] GatedDetections infer_gated(const RoiGateConfig& config,
                                          const codec::DecodedFrame& decoded,
                                          const GatePlan& plan,
                                          const DetectionList& held,
                                          const ChromaDetector& detector);

}  // namespace dive::edge
