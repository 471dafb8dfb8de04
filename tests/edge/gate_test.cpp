// Unit tests of the RoI gating policy (edge/gate.h) as EdgeServer runs
// it: full-frame fallbacks, refresh cadence, horizon band, scan stripes,
// coverage threshold, the scheduler work floor, a sidecar on the wrong MB
// grid, and process() on full-frame plans against an ungated server.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "edge/gate.h"
#include "edge/server.h"
#include "roi/metadata.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::edge {
namespace {

using roi::RoiMetadata;

constexpr int kW = 128;
constexpr int kH = 96;

/// Sidecar on the kW x kH grid with no regions unless added.
RoiMetadata grid_meta() {
  RoiMetadata m;
  m.mb_cols = kW / codec::kMacroblockSize;
  m.mb_rows = kH / codec::kMacroblockSize;
  return m;
}

/// A decoded inter frame with a quiet motion field (all-zero MVs,
/// nothing skipped): plans on it light only policy tiles (horizon band,
/// stripes). 8x6 tiles of 16 px; the band is tile row 3.
codec::DecodedFrame quiet_frame() {
  codec::DecodedFrame d;
  d.frame = video::Frame(kW, kH);
  d.type = codec::FrameType::kInter;
  d.motion = codec::MotionField(kW / codec::kMacroblockSize,
                                kH / codec::kMacroblockSize);
  d.skip.assign(d.motion.size(), 0);
  return d;
}

RoiGateConfig quiet_config() {
  RoiGateConfig cfg;
  cfg.tile_px = 16;
  cfg.halo_tiles = 0;
  cfg.scan_stripes = 0;
  return cfg;
}

/// Frame 0 of a stream is always a full refresh; plans past it gate.
constexpr long kPastRefresh = 1;

bool tile_at(const GatePlan& p, int tx, int ty) {
  return p.tiles[static_cast<std::size_t>(ty) * p.tile_cols + tx] != 0;
}

TEST(RoiGatePlan, NullOrMismatchedMetadataFallsBackToFullFrame) {
  const RoiGateConfig cfg = quiet_config();
  const codec::DecodedFrame d = quiet_frame();
  const RoiMetadata m = grid_meta();
  ASSERT_TRUE(plan_gate(cfg, &m, d, kPastRefresh).gated);
  EXPECT_FALSE(plan_gate(cfg, nullptr, d, kPastRefresh).gated);
  EXPECT_EQ(plan_gate(cfg, nullptr, d, kPastRefresh).work, 1.0);
  RoiMetadata wrong = grid_meta();
  wrong.mb_cols *= 2;  // dimension mismatch
  EXPECT_FALSE(plan_gate(cfg, &wrong, d, kPastRefresh).gated);
  // An intra frame carries no motion: a grid-only sidecar has no signal.
  codec::DecodedFrame intra = quiet_frame();
  intra.type = codec::FrameType::kIntra;
  intra.motion = {};
  intra.skip.clear();
  EXPECT_FALSE(plan_gate(cfg, &m, intra, kPastRefresh).gated);
}

TEST(RoiGatePlan, FullRefreshCadence) {
  // Through EdgeServer on real uploads: a static scene codes every MB as
  // SKIP, so past the refresh only the horizon band lights and gates.
  codec::Encoder enc({.width = kW, .height = kH});
  EdgeServer gate({}, 1, quiet_config());
  const RoiMetadata m = grid_meta();
  static_assert(kFullRefreshInterval == 12);
  for (int k = 0; k < 30; ++k) {
    const PlannedFrame p =
        gate.plan(enc.encode(video::Frame(kW, kH), 20).data, &m);
    EXPECT_EQ(p.plan.gated, k % 12 != 0) << "frame " << k;
  }
  EXPECT_EQ(gate.gate_stats().planned, 30);
}

TEST(RoiGatePlan, HorizonBandStaysLit) {
  const RoiGateConfig cfg = quiet_config();
  const RoiMetadata m = grid_meta();
  const GatePlan p = plan_gate(cfg, &m, quiet_frame(), kPastRefresh);
  ASSERT_TRUE(p.gated);
  static_assert(kHorizonRows == 1);
  const int horizon_ty = (kH / 2) / cfg.tile_px;
  for (int ty = 0; ty < p.tile_rows; ++ty)
    for (int tx = 0; tx < p.tile_cols; ++tx)
      EXPECT_EQ(tile_at(p, tx, ty), ty == horizon_ty) << tx << "," << ty;
  // Only the band is lit: work is the floored fraction of one tile row.
  EXPECT_DOUBLE_EQ(p.coverage, 1.0 / 6.0);
  EXPECT_GE(p.work, kMinWorkFraction);
}

TEST(RoiGatePlan, ScanStripesRotate) {
  RoiGateConfig cfg = quiet_config();
  cfg.scan_stripes = 4;
  const RoiMetadata m = grid_meta();
  const codec::DecodedFrame d = quiet_frame();
  for (int k = 1; k < 9; ++k) {
    const GatePlan p = plan_gate(cfg, &m, d, k);
    ASSERT_TRUE(p.gated) << "frame " << k;
    for (int tx = 0; tx < p.tile_cols; ++tx) {
      const bool expect_lit = tx % 4 == k % 4;
      EXPECT_EQ(tile_at(p, tx, 0), expect_lit) << "k=" << k << " tx=" << tx;
    }
  }
}

TEST(RoiGatePlan, MotionDeviationLightsOutliersNotEgoMotion) {
  RoiGateConfig cfg = quiet_config();
  cfg.motion_deviation = 4;
  // Uniform pan (pure ego motion) + one deviating macroblock, and one
  // deviating macroblock the bitstream codes as SKIP.
  codec::DecodedFrame d = quiet_frame();
  for (auto& mv : d.motion.mvs) mv = {10, -6};
  d.motion.at(3, 2) = {30, -6};
  d.motion.at(5, 4) = {30, -6};
  d.skip[static_cast<std::size_t>(4) * d.motion.mb_cols + 5] = 1;
  const RoiMetadata m = grid_meta();
  const GatePlan p = plan_gate(cfg, &m, d, kPastRefresh);
  ASSERT_TRUE(p.gated);
  EXPECT_TRUE(tile_at(p, 3, 2));
  EXPECT_FALSE(tile_at(p, 5, 4));
  // The pan itself lights nothing — median-MV compensation absorbs it.
  EXPECT_FALSE(tile_at(p, 0, 0));
  EXPECT_FALSE(tile_at(p, p.tile_cols - 1, p.tile_rows - 1));
}

TEST(RoiGatePlan, CoverageThresholdForcesFullFrame) {
  const RoiGateConfig cfg = quiet_config();
  // Tile rows 0-2 pan against a still majority (the median MV stays 0),
  // so each deviating MB lights its tile; the band adds row 3. 32 of 48
  // tiles reach the threshold, 31 stay under it.
  static_assert(31.0 / 48.0 < kMaxCoverage && kMaxCoverage <= 32.0 / 48.0);
  const RoiMetadata m = grid_meta();
  codec::DecodedFrame d = quiet_frame();
  for (int mb = 0; mb < 3 * d.motion.mb_cols; ++mb)
    d.motion.mvs[static_cast<std::size_t>(mb)] = {-30, 0};
  const GatePlan over = plan_gate(cfg, &m, d, kPastRefresh);
  EXPECT_FALSE(over.gated);
  EXPECT_EQ(over.coverage, 1.0);
  EXPECT_EQ(over.work, 1.0);
  EXPECT_EQ(over.pixel_fraction, 1.0);

  d.motion.mvs[0] = {0, 0};
  const GatePlan under = plan_gate(cfg, &m, d, kPastRefresh);
  EXPECT_TRUE(under.gated);
  EXPECT_DOUBLE_EQ(under.coverage, 31.0 / 48.0);
}

TEST(RoiGateRun, FullFramePlanSeedsHeldBoxes) {
  codec::Encoder enc({.width = kW, .height = kH});
  video::Frame frame(kW, kH);
  for (int y = 40; y < 60; ++y)
    for (int x = 30; x < 70; ++x) {
      frame.u.at(x / 2, y / 2) = 168;
      frame.v.at(x / 2, y / 2) = 120;
    }
  const auto encoded = enc.encode(frame, 8);
  EdgeServer gate({}, 1, quiet_config());
  const PlannedFrame full = gate.plan(encoded.data, nullptr);
  ASSERT_FALSE(full.plan.gated);
  const GatedDetections out = gate.run(full);
  EXPECT_FALSE(out.gated);
  EXPECT_EQ(out.pixel_fraction, 1.0);
  ASSERT_GE(out.fresh, 1);
  EXPECT_EQ(gate.held().size(), out.detections.size());
  EXPECT_EQ(gate.gate_stats().full, 1);
  EXPECT_EQ(gate.gate_stats().gated, 0);
}

TEST(RoiGateRun, MismatchedSidecarInfersFullFrame) {
  // A sidecar claiming twice the bitstream's MB grid must never drive
  // gating: on its own grid it lights tiles past the frame, whose clipped
  // area is negative. Both entry points plan on the decoded frame.
  codec::Encoder enc({.width = kW, .height = kH});
  RoiMetadata wrong;
  wrong.mb_cols = 2 * kW / codec::kMacroblockSize;
  wrong.mb_rows = 2 * kH / codec::kMacroblockSize;
  roi::add_region(wrong, {{180, 10}, {240, 10}, {240, 80}, {180, 80}});
  EdgeServer server({}, 1, quiet_config());
  for (int k = 0; k < 2; ++k) {
    GatePlan used;
    (void)server.process(enc.encode(video::Frame(kW, kH), 20).data, 0,
                         &wrong, &used);
    EXPECT_FALSE(used.gated) << "frame " << k;
  }
  const PlannedFrame p =
      server.plan(enc.encode(video::Frame(kW, kH), 20).data, &wrong);
  EXPECT_FALSE(p.plan.gated);
  const GatedDetections out = server.run(p);
  EXPECT_FALSE(out.gated);
  EXPECT_EQ(out.pixel_fraction, 1.0);
  EXPECT_EQ(server.gate_stats().gated, 0);
  EXPECT_EQ(server.gate_stats().full, 3);
}

TEST(RoiGateProcess, MatchesEdgeServerOnFullFramePlans) {
  // process() with no metadata must not depend on the gate policy: same
  // detections, same latency, same jitter stream position as a server
  // with the default policy.
  codec::Encoder enc_a({.width = kW, .height = kH});
  codec::Encoder enc_b({.width = kW, .height = kH});
  const ServerConfig sc;
  EdgeServer plain(sc, 9);
  EdgeServer gate(sc, 9, quiet_config());
  util::Rng rng(3);
  video::Frame frame(kW, kH);
  for (auto& px : frame.y.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto bytes_a = enc_a.encode(frame, 20).data;
    const auto bytes_b = enc_b.encode(frame, 20).data;
    ASSERT_EQ(bytes_a, bytes_b);
    const auto want = plain.process(bytes_a, util::from_millis(10.0 * k));
    GatePlan used;
    const auto got =
        gate.process(bytes_b, util::from_millis(10.0 * k), nullptr, &used);
    EXPECT_FALSE(used.gated);
    EXPECT_EQ(got.result_at_agent, want.result_at_agent) << "frame " << k;
    EXPECT_EQ(got.detections.size(), want.detections.size());
    EXPECT_EQ(gate.frames_processed(), plain.frames_processed());
  }
}

}  // namespace
}  // namespace dive::edge
