#include "geom/ransac.h"

#include <gtest/gtest.h>

#include <vector>

#include "geom/least_squares.h"
#include "util/rng.h"

namespace dive::geom {
namespace {

/// Line fit y = m*x + b as a 2-parameter RANSAC model.
struct LineData {
  std::vector<Vec2> points;
};

std::optional<RansacResult<Vec2>> fit_line(const LineData& data,
                                           const RansacOptions& opts,
                                           util::Rng& rng) {
  auto fit = [&data](std::span<const std::size_t> idx)
      -> std::optional<Vec2> {
    std::vector<LinearRow2> rows;
    for (auto i : idx)
      rows.push_back({data.points[i].x, 1.0, data.points[i].y});
    return solve_least_squares_2(rows);
  };
  auto error = [&data](const Vec2& model, std::size_t i) {
    return std::abs(model.x * data.points[i].x + model.y - data.points[i].y);
  };
  return ransac<Vec2>(data.points.size(), opts, rng, fit, error);
}

TEST(Ransac, RecoversLineDespiteOutliers) {
  util::Rng rng(5);
  LineData data;
  // 70 inliers on y = 2x + 1 with small noise, 30 wild outliers.
  for (int i = 0; i < 70; ++i) {
    const double x = rng.uniform(-10, 10);
    data.points.push_back({x, 2.0 * x + 1.0 + rng.gaussian(0, 0.05)});
  }
  for (int i = 0; i < 30; ++i) {
    data.points.push_back({rng.uniform(-10, 10), rng.uniform(-50, 50)});
  }
  RansacOptions opts;
  opts.iterations = 100;
  opts.inlier_threshold = 0.3;
  const auto result = fit_line(data, opts, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->model.x, 2.0, 0.05);
  EXPECT_NEAR(result->model.y, 1.0, 0.2);
  EXPECT_GE(result->inliers.size(), 60u);
  EXPECT_LE(result->inlier_rms, opts.inlier_threshold);
}

TEST(Ransac, FailsWithTooFewPoints) {
  util::Rng rng(1);
  LineData data;
  data.points.push_back({0, 0});
  RansacOptions opts;
  EXPECT_FALSE(fit_line(data, opts, rng).has_value());
}

TEST(Ransac, MinInliersRejectsNonConsensus) {
  util::Rng rng(2);
  LineData data;
  // Pure noise: no line should gather 80% consensus at a tight threshold.
  for (int i = 0; i < 50; ++i)
    data.points.push_back({rng.uniform(-10, 10), rng.uniform(-100, 100)});
  RansacOptions opts;
  opts.iterations = 50;
  opts.inlier_threshold = 0.05;
  opts.min_inliers = 40;
  EXPECT_FALSE(fit_line(data, opts, rng).has_value());
}

TEST(Ransac, RefitTightensModel) {
  util::Rng rng(9);
  LineData data;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-10, 10);
    data.points.push_back({x, -1.5 * x + 4.0 + rng.gaussian(0, 0.1)});
  }
  RansacOptions opts;
  opts.iterations = 30;
  opts.inlier_threshold = 0.5;
  const auto refit = fit_line(data, opts, rng);
  ASSERT_TRUE(refit.has_value());
  // With all points inliers, the refit equals the global LS fit.
  EXPECT_NEAR(refit->model.x, -1.5, 0.02);
  EXPECT_NEAR(refit->model.y, 4.0, 0.05);
  EXPECT_EQ(refit->inliers.size(), 100u);
}

TEST(Ransac, DeterministicGivenSeed) {
  LineData data;
  util::Rng gen(33);
  for (int i = 0; i < 60; ++i) {
    const double x = gen.uniform(-5, 5);
    data.points.push_back({x, 0.5 * x - 2 + gen.gaussian(0, 0.2)});
  }
  RansacOptions opts;
  opts.iterations = 40;
  opts.inlier_threshold = 0.5;
  util::Rng r1(7), r2(7);
  const auto a = fit_line(data, opts, r1);
  const auto b = fit_line(data, opts, r2);
  ASSERT_TRUE(a && b);
  EXPECT_DOUBLE_EQ(a->model.x, b->model.x);
  EXPECT_DOUBLE_EQ(a->model.y, b->model.y);
  EXPECT_EQ(a->inliers, b->inliers);
}

}  // namespace
}  // namespace dive::geom
