// Unit tests of the RoiGate planning/inference policy (roi/gate.h):
// full-frame fallbacks, refresh cadence, horizon band, scan stripes,
// coverage threshold, the scheduler work floor, and the process() path's
// jitter pairing against a plain EdgeServer.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "codec/encoder.h"
#include "edge/server.h"
#include "roi/gate.h"
#include "roi/metadata.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::roi {
namespace {

constexpr int kW = 128;
constexpr int kH = 96;

/// Sidecar with a quiet motion field (all-zero MVs, nothing skipped) and
/// no regions unless added — plans against it light only policy tiles
/// (horizon band, stripes). 8x6 tiles of 16 px; the band is tile row 3.
RoiMetadata quiet_meta() {
  RoiMetadata m;
  m.mb_cols = kW / codec::kMacroblockSize;
  m.mb_rows = kH / codec::kMacroblockSize;
  m.mvs.assign(static_cast<std::size_t>(m.mb_cols) * m.mb_rows, {0, 0});
  m.skip.assign(m.mvs.size(), 0);
  return m;
}

RoiGateConfig quiet_config() {
  RoiGateConfig cfg;
  cfg.tile_px = 16;
  cfg.halo_tiles = 0;
  cfg.scan_stripes = 0;
  return cfg;
}

/// Plans and discards the first frame, which is always a full refresh.
void skip_refresh(RoiGate& gate) {
  const RoiMetadata m = quiet_meta();
  EXPECT_FALSE(gate.plan(&m, kW, kH).gated);
}

bool tile_at(const GatePlan& p, int tx, int ty) {
  return p.tiles[static_cast<std::size_t>(ty) * p.tile_cols + tx] != 0;
}

TEST(RoiGatePlan, NullOrMismatchedMetadataFallsBackToFullFrame) {
  edge::EdgeServer server({}, 1);
  RoiGate gate(quiet_config(), &server);
  EXPECT_FALSE(gate.plan(nullptr, kW, kH).gated);
  const RoiMetadata wrong = quiet_meta();
  EXPECT_FALSE(gate.plan(&wrong, kW * 2, kH).gated);  // dimension mismatch
  EXPECT_EQ(gate.plan(nullptr, kW, kH).work, 1.0);
}

TEST(RoiGatePlan, FullRefreshCadence) {
  edge::EdgeServer server({}, 1);
  RoiGate gate(quiet_config(), &server);
  const RoiMetadata m = quiet_meta();  // the horizon band gates between
  static_assert(kFullRefreshInterval == 12);
  for (int k = 0; k < 30; ++k) {
    const GatePlan p = gate.plan(&m, kW, kH);
    EXPECT_EQ(p.gated, k % 12 != 0) << "frame " << k;
  }
  EXPECT_EQ(gate.stats().planned, 30);
}

TEST(RoiGatePlan, HorizonBandStaysLit) {
  edge::EdgeServer server({}, 1);
  const RoiGateConfig cfg = quiet_config();
  RoiGate gate(cfg, &server);
  skip_refresh(gate);
  const RoiMetadata m = quiet_meta();
  const GatePlan p = gate.plan(&m, kW, kH);
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
  edge::EdgeServer server({}, 1);
  RoiGateConfig cfg = quiet_config();
  cfg.scan_stripes = 4;
  RoiGate gate(cfg, &server);
  skip_refresh(gate);
  const RoiMetadata m = quiet_meta();
  for (int k = 1; k < 9; ++k) {
    const GatePlan p = gate.plan(&m, kW, kH);
    ASSERT_TRUE(p.gated) << "frame " << k;
    for (int tx = 0; tx < p.tile_cols; ++tx) {
      const bool expect_lit = tx % 4 == k % 4;
      EXPECT_EQ(tile_at(p, tx, 0), expect_lit) << "k=" << k << " tx=" << tx;
    }
  }
}

TEST(RoiGatePlan, MotionDeviationLightsOutliersNotEgoMotion) {
  edge::EdgeServer server({}, 1);
  RoiGateConfig cfg = quiet_config();
  cfg.motion_deviation = 4;
  RoiGate gate(cfg, &server);
  skip_refresh(gate);
  // Uniform pan (pure ego motion) + one deviating macroblock.
  RoiMetadata m = quiet_meta();
  for (auto& mv : m.mvs) mv = {10, -6};
  m.mvs[static_cast<std::size_t>(2) * m.mb_cols + 3] = {30, -6};
  const GatePlan p = gate.plan(&m, kW, kH);
  ASSERT_TRUE(p.gated);
  EXPECT_TRUE(tile_at(p, 3, 2));
  // The pan itself lights nothing — median-MV compensation absorbs it.
  EXPECT_FALSE(tile_at(p, 0, 0));
  EXPECT_FALSE(tile_at(p, p.tile_cols - 1, p.tile_rows - 1));
}

TEST(RoiGatePlan, CoverageThresholdForcesFullFrame) {
  edge::EdgeServer server({}, 1);
  RoiGate gate(quiet_config(), &server);
  skip_refresh(gate);
  // Tile rows 0-2 pan against a still majority (the median MV stays 0),
  // so each deviating MB lights its tile; the band adds row 3. 32 of 48
  // tiles reach the threshold, 31 stay under it.
  static_assert(31.0 / 48.0 < kMaxCoverage && kMaxCoverage <= 32.0 / 48.0);
  RoiMetadata m = quiet_meta();
  for (int mb = 0; mb < 3 * m.mb_cols; ++mb)
    m.mvs[static_cast<std::size_t>(mb)] = {-30, 0};
  const GatePlan over = gate.plan(&m, kW, kH);
  EXPECT_FALSE(over.gated);
  EXPECT_EQ(over.coverage, 1.0);
  EXPECT_EQ(over.work, 1.0);
  EXPECT_EQ(over.pixel_fraction, 1.0);

  m.mvs[0] = {0, 0};
  const GatePlan under = gate.plan(&m, kW, kH);
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
  edge::EdgeServer server({}, 1);
  RoiGate gate(quiet_config(), &server);
  const GatePlan full = gate.plan(nullptr, kW, kH);
  const GatedDetections out = gate.run(encoded.data, nullptr, full);
  EXPECT_FALSE(out.gated);
  EXPECT_EQ(out.pixel_fraction, 1.0);
  ASSERT_GE(out.fresh, 1);
  EXPECT_EQ(gate.held().size(), out.detections.size());
  EXPECT_EQ(gate.stats().full, 1);
  EXPECT_EQ(gate.stats().gated, 0);
}

TEST(RoiGateProcess, MatchesEdgeServerOnFullFramePlans) {
  // process() with no metadata must be byte-for-byte EdgeServer::process:
  // same detections, same latency, same jitter stream position.
  codec::Encoder enc_a({.width = kW, .height = kH});
  codec::Encoder enc_b({.width = kW, .height = kH});
  const edge::ServerConfig sc;
  edge::EdgeServer plain(sc, 9);
  edge::EdgeServer wrapped(sc, 9);
  RoiGate gate(quiet_config(), &wrapped);
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
        gate.process(bytes_b, nullptr, util::from_millis(10.0 * k), &used);
    EXPECT_FALSE(used.gated);
    EXPECT_EQ(got.result_at_agent, want.result_at_agent) << "frame " << k;
    EXPECT_EQ(got.detections.size(), want.detections.size());
    EXPECT_EQ(wrapped.frames_processed(), plain.frames_processed());
  }
}

}  // namespace
}  // namespace dive::roi
