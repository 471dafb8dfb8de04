// RoiGate: compressed-domain inference gating in front of edge::EdgeServer.
//
// The gate tiles the decoded frame, rasterizes the sidecar's foreground
// hulls (plus MBs the codec says are moving and not SKIPped) into the
// tile grid, dilates by a halo, and runs the detector only on those
// tiles — the background is reset to neutral luma/chroma so the blob
// detector cannot fire there. Background boxes from the previous frame
// are propagated by mean-MV shift (edge::shift_by_mean_mv, the same
// primitive as the agent's MOT fallback). Full-frame inference remains
// the fallback when metadata is absent, foreground coverage exceeds a
// threshold, or the periodic refresh is due (bounds propagation
// staleness, which is what keeps gated mAP within points of full-frame).
//
// Determinism: plan() and run() are deterministic functions of the gate
// state and their inputs; the serving layer calls plan() once per frame
// at submission and run() once at dispatch, both in per-session frame
// order, so gated detections are identical for every worker count and
// batch interleaving (locked by the differential suite).
#pragma once

#include <cstdint>
#include <span>

#include "edge/box_shift.h"
#include "edge/detection.h"
#include "edge/server.h"
#include "roi/metadata.h"
#include "util/sim_clock.h"

namespace dive::roi {

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

/// How one frame will be inferred. Computed before dispatch so the
/// scheduler can price gated work.
struct GatePlan {
  bool gated = false;  ///< false = full-frame inference
  int tile_cols = 0;
  int tile_rows = 0;
  std::vector<std::uint8_t> tiles;  ///< row-major; 1 = detector runs here
  double coverage = 1.0;        ///< post-halo foreground tile fraction
  double pixel_fraction = 1.0;  ///< detector pixels / frame pixels
  double work = 1.0;            ///< scheduler cost scale (floored fraction)
};

/// Gated inference outcome of one frame.
struct GatedDetections {
  edge::DetectionList detections;  ///< fresh + propagated, merged
  int fresh = 0;       ///< boxes from the detector on foreground tiles
  int propagated = 0;  ///< background boxes carried by mean-MV shift
  bool gated = false;  ///< false when this frame ran full-frame
  /// Actual detector pixel fraction, including the tiles lit under held
  /// boxes at run time (>= the plan's estimate; 1.0 on full frames).
  double pixel_fraction = 1.0;
};

/// Lifetime accounting of one gate (monotonic; diff across calls for
/// per-frame deltas).
struct GateStats {
  long planned = 0;           ///< plan() calls
  long gated = 0;             ///< frames inferred through tile gating
  long full = 0;              ///< frames inferred full-frame
  long propagated_boxes = 0;  ///< background boxes carried by MV shift
};

class RoiGate {
 public:
  RoiGate(RoiGateConfig config, edge::EdgeServer* server)
      : config_(config), server_(server) {}

  [[nodiscard]] const GateStats& stats() const { return stats_; }

  /// Decides how the next frame is inferred. Advances the refresh
  /// counter — call exactly once per frame, in per-session frame order.
  /// `meta` null (or dimension mismatch / no signal) => full-frame.
  [[nodiscard]] GatePlan plan(const RoiMetadata* meta, int width, int height);

  /// Decode + gated inference, no latency model (the serving layer
  /// schedules timing itself). Always decodes — inter frames reference
  /// the decoder state regardless of gating.
  GatedDetections run(std::span<const std::uint8_t> data,
                      const RoiMetadata* meta, const GatePlan& plan);

  /// Drop-in replacement for EdgeServer::process(): same latency model
  /// and the SAME sequential jitter stream (EdgeServer::take_jitter), but
  /// inference latency scaled by the plan's work fraction. Plans
  /// internally; `plan_out`, when given, receives the plan used.
  edge::InferenceResult process(std::span<const std::uint8_t> data,
                                const RoiMetadata* meta, util::SimTime arrival,
                                GatePlan* plan_out = nullptr);

  [[nodiscard]] edge::EdgeServer& server() { return *server_; }
  /// Detections the gate would propagate from (previous frame's merged
  /// output).
  [[nodiscard]] const edge::DetectionList& held() const { return held_; }

 private:
  /// Gated inference on an already-decoded frame.
  GatedDetections infer(const video::Frame& frame, const RoiMetadata* meta,
                        const GatePlan& plan);

  RoiGateConfig config_;
  edge::EdgeServer* server_;
  long planned_ = 0;           ///< frames plan() has seen (refresh cadence)
  edge::DetectionList held_;   ///< previous frame's output, for propagation
  GateStats stats_;
};

}  // namespace dive::roi
