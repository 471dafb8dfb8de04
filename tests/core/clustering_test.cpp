#include "core/clustering.h"

#include <gtest/gtest.h>

namespace dive::core {
namespace {

/// Builds a PreprocessResult grid with explicit per-block MVs.
PreprocessResult grid(int cols, int rows) {
  PreprocessResult pre;
  pre.mb_cols = cols;
  pre.mb_rows = rows;
  pre.agent_moving = true;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      CorrectedMv m;
      m.col = c;
      m.row = r;
      m.position = {c * 16.0 + 8.0, r * 16.0 + 8.0};
      pre.mvs.push_back(m);
    }
  return pre;
}

void set_mv(PreprocessResult& pre, int col, int row, geom::Vec2 mv) {
  pre.mvs[static_cast<std::size_t>(row) * pre.mb_cols + col].corrected = mv;
}

TEST(Clustering, GrowsUniformBlob) {
  auto pre = grid(10, 10);
  for (int r = 2; r <= 5; ++r)
    for (int c = 3; c <= 6; ++c) set_mv(pre, c, r, {5, 1});
  const ForegroundClusterer fc;
  const auto clusters = fc.grow(pre, {4 * 10 + 4});  // seed inside blob
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 16);
  EXPECT_NEAR(clusters[0].mean_mv.x, 5.0, 1e-9);
  EXPECT_EQ(clusters[0].col_min, 3);
  EXPECT_EQ(clusters[0].col_max, 6);
}

TEST(Clustering, StopsAtDissimilarMotion) {
  auto pre = grid(10, 4);
  for (int c = 0; c <= 4; ++c) set_mv(pre, c, 1, {6, 0});
  for (int c = 5; c <= 9; ++c) set_mv(pre, c, 1, {-6, 0});
  const ForegroundClusterer fc;
  const auto clusters = fc.grow(pre, {1 * 10 + 1});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].col_max, 4);
}

TEST(Clustering, SeedsInSameBlobShareCluster) {
  auto pre = grid(8, 8);
  for (int r = 1; r <= 3; ++r)
    for (int c = 1; c <= 3; ++c) set_mv(pre, c, r, {4, 4});
  const ForegroundClusterer fc;
  const auto clusters = fc.grow(pre, {1 * 8 + 1, 2 * 8 + 2, 3 * 8 + 3});
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(Clustering, MinSizeFiltersNoise) {
  auto pre = grid(8, 8);
  set_mv(pre, 4, 4, {9, 0});  // isolated single block
  const ForegroundClusterer fc;  // clusters need at least 2 MBs
  EXPECT_TRUE(fc.grow(pre, {4 * 8 + 4}).empty());
}

TEST(Clustering, GroundMaskBlocksGrowth) {
  auto pre = grid(10, 4);
  for (int c = 0; c <= 9; ++c) set_mv(pre, c, 2, {5, 0});
  std::vector<bool> ground(pre.mvs.size(), false);
  for (int c = 5; c <= 9; ++c) ground[2 * 10 + c] = true;
  const ForegroundClusterer fc;
  const auto clusters = fc.grow(pre, {2 * 10 + 1}, ground, {});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].col_max, 4);
}

TEST(Clustering, OutsideHullNeedsMotionEvidence) {
  auto pre = grid(6, 6);
  // A blob of near-zero vectors; the seed sits in-hull, the rest outside.
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) set_mv(pre, c, r, {0.4, 0.0});
  std::vector<bool> hull(pre.mvs.size(), false);
  hull[3 * 6 + 3] = true;
  const ForegroundClusterer fc;
  const auto clusters = fc.grow(pre, {3 * 6 + 3}, {}, hull);
  // Growth outside the hull is blocked (|mv| < kMinOutsideMv).
  EXPECT_TRUE(clusters.empty() || clusters[0].size() <= 2);
}

TEST(Clustering, AnchorStopsGradualDrift) {
  // MV magnitude ramps by 0.9 px per row along a column; without the
  // anchor bound a single cluster would creep down the ramp, each step
  // individually "similar". Side columns carry dissimilar motion so only
  // the ramp is in play. The bound is max(2.0, 0.5 * |seed_mv|).
  const auto ramp = [](double seed_mv) {
    auto pre = grid(3, 12);
    for (int r = 0; r < 12; ++r) {
      set_mv(pre, 0, r, {30.0, 0.0});
      set_mv(pre, 2, r, {-30.0, 0.0});
      set_mv(pre, 1, r, {0.0, seed_mv + r * 0.9});
    }
    return pre;
  };
  const ForegroundClusterer fc;

  // Seed MV 1.0: the absolute bound 2.0 admits rows 0-2. Row 3 is 2.7 px
  // from the seed, yet passes the pair test (0.9 <= 1.8) and the mean
  // test (1.8 from the mean of rows 0-2, <= 2.5): only the anchor stops
  // it, where those two alone would grow through row 4.
  const auto slow = fc.grow(ramp(1.0), {0 * 3 + 1});
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].row_max, 2);
  EXPECT_EQ(slow[0].size(), 3);

  // Seed MV 6.0: the relative bound 3.0 admits row 3 (2.7 px) and stops
  // row 4 (3.6 px), which passes the pair and mean tests (2.25 <= 2.5).
  const auto fast = fc.grow(ramp(6.0), {0 * 3 + 1});
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0].row_max, 3);
  EXPECT_EQ(fast[0].size(), 4);
}

TEST(ClusterMerge, JoinsAdjacentSimilarClusters) {
  Cluster a, b;
  a.members = {0, 1, 2};
  a.mean_mv = {5, 0};
  a.col_min = 0; a.col_max = 2; a.row_min = 0; a.row_max = 0;
  b.members = {4, 5, 6};
  b.mean_mv = {5.3, 0.2};
  b.col_min = 4; b.col_max = 6; b.row_min = 0; b.row_max = 0;
  const ForegroundClusterer fc;
  const auto merged = fc.merge({a, b});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].size(), 6);
  EXPECT_EQ(merged[0].col_max, 6);
}

TEST(ClusterMerge, KeepsOpposedDirectionsApart) {
  Cluster a, b;
  a.members = {0, 1};
  a.mean_mv = {5, 0};
  a.col_min = 0; a.col_max = 1; a.row_min = 0; a.row_max = 0;
  b.members = {2, 3};
  b.mean_mv = {-5, 0};  // oncoming traffic
  b.col_min = 2; b.col_max = 3; b.row_min = 0; b.row_max = 0;
  const ForegroundClusterer fc;
  EXPECT_EQ(fc.merge({a, b}).size(), 2u);
}

TEST(ClusterMerge, DistantClustersStaySeparate) {
  Cluster a, b;
  a.members = {0};
  a.mean_mv = {5, 0};
  a.col_min = 0; a.col_max = 1; a.row_min = 0; a.row_max = 1;
  b.members = {50};
  b.mean_mv = {5, 0};
  b.col_min = 10; b.col_max = 12; b.row_min = 0; b.row_max = 1;
  const ForegroundClusterer fc;
  EXPECT_EQ(fc.merge({a, b}).size(), 2u);
}

TEST(ClusterMerge, CascadesUntilFixedPoint) {
  // Three chained clusters: a-b adjacent, b-c adjacent, a-c not. All must
  // collapse into one through the transitive merge.
  Cluster a, b, c;
  a.members = {0}; a.mean_mv = {4, 0};
  a.col_min = 0; a.col_max = 1; a.row_min = 0; a.row_max = 0;
  b.members = {1}; b.mean_mv = {4.2, 0};
  b.col_min = 3; b.col_max = 4; b.row_min = 0; b.row_max = 0;
  c.members = {2}; c.mean_mv = {4.4, 0};
  c.col_min = 6; c.col_max = 7; c.row_min = 0; c.row_max = 0;
  const ForegroundClusterer fc;
  EXPECT_EQ(fc.merge({a, b, c}).size(), 1u);
}

TEST(ClusterMerge, MagnitudeRatioGate) {
  Cluster slow, fast;
  slow.members = {0};
  slow.mean_mv = {1, 0};
  slow.col_min = 0; slow.col_max = 1; slow.row_min = 0; slow.row_max = 0;
  fast.members = {1};
  fast.mean_mv = {10, 0};  // same direction, 10x magnitude
  fast.col_min = 2; fast.col_max = 3; fast.row_min = 0; fast.row_max = 0;
  const ForegroundClusterer fc;
  EXPECT_EQ(fc.merge({slow, fast}).size(), 2u);
}

}  // namespace
}  // namespace dive::core
