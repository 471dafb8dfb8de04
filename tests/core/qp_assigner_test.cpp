#include "core/qp_assigner.h"

#include <gtest/gtest.h>

namespace dive::core {
namespace {

ForegroundResult result_with_region(geom::Box bounds) {
  ForegroundResult fg;
  fg.valid = true;
  ForegroundRegion region;
  region.hull = {{bounds.x0, bounds.y0},
                 {bounds.x1, bounds.y0},
                 {bounds.x1, bounds.y1},
                 {bounds.x0, bounds.y1}};
  region.bounds = bounds;
  fg.regions.push_back(region);
  return fg;
}

TEST(QpAssigner, ForegroundZeroBackgroundDelta) {
  const QpAssigner qa;
  const auto fg = result_with_region({64, 64, 192, 160});
  const auto map = qa.assign(fg, 32, 18).map;
  // Inside the region: offset 0.
  EXPECT_EQ(map.at(6, 6), 0);
  EXPECT_EQ(map.at(10, 8), 0);
  // Outside: positive delta.
  EXPECT_GT(map.at(0, 0), 0);
  EXPECT_GT(map.at(31, 17), 0);
}

TEST(QpAssigner, AdaptiveDeltaGrowsWithForeground) {
  const QpAssigner qa;
  const int small =
      qa.assign(result_with_region({0, 0, 64, 64}), 32, 18).background_delta;
  const int large =
      qa.assign(result_with_region({0, 0, 400, 250}), 32, 18).background_delta;
  EXPECT_GT(large, small);
}

TEST(QpAssigner, DeltaClampedToRange) {
  // The adaptive delta is clamped to [4, 26].
  const QpAssigner qa;
  EXPECT_EQ(
      qa.assign(result_with_region({0, 0, 512, 288}), 32, 18).background_delta,
      26);
  EXPECT_EQ(
      qa.assign(result_with_region({0, 0, 16, 16}), 32, 18).background_delta,
      4);
}

TEST(QpAssigner, FixedDeltaOverridesAdaptive) {
  QpAssignerConfig cfg;
  cfg.fixed_delta = 15;
  const QpAssigner qa(cfg);
  EXPECT_EQ(
      qa.assign(result_with_region({0, 0, 512, 288}), 32, 18).background_delta,
      15);
  EXPECT_EQ(qa.assign(ForegroundResult{}, 32, 18).background_delta, 15);
}

TEST(QpAssigner, NoForegroundUsesGentleDelta) {
  // The gentle delta is the bottom of the adaptive range, 4.
  const QpAssigner qa;
  ForegroundResult none;
  EXPECT_EQ(qa.assign(none, 32, 18).background_delta, 4);
  const auto map = qa.assign(none, 4, 4).map;
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_EQ(map.at(c, r), 4);
}

TEST(QpAssigner, MaskMatchesMap) {
  const QpAssigner qa;
  const auto fg = result_with_region({64, 64, 160, 160});
  const auto mask = QpAssigner::foreground_mask(fg, 32, 18);
  const auto map = qa.assign(fg, 32, 18).map;
  for (int r = 0; r < 18; ++r)
    for (int c = 0; c < 32; ++c) {
      const bool is_fg = mask[static_cast<std::size_t>(r) * 32 + c];
      EXPECT_EQ(map.at(c, r) == 0, is_fg) << c << "," << r;
    }
}

TEST(QpAssigner, OverlappingRegionsCountOnce) {
  const QpAssigner qa;
  auto fg = result_with_region({0, 0, 256, 144});
  // Duplicate the same region: union area unchanged, delta unchanged.
  fg.regions.push_back(fg.regions[0]);
  const int twice = qa.assign(fg, 32, 18).background_delta;
  const int once =
      qa.assign(result_with_region({0, 0, 256, 144}), 32, 18).background_delta;
  EXPECT_EQ(twice, once);
}

}  // namespace
}  // namespace dive::core
