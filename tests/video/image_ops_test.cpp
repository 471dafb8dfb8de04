#include "video/image_ops.h"

#include <gtest/gtest.h>

namespace dive::video {
namespace {

TEST(PlaneMse, IdenticalIsZero) {
  Plane a(8, 8, 100), b(8, 8, 100);
  EXPECT_DOUBLE_EQ(plane_mse(a, b), 0.0);
}

TEST(PlaneMse, UniformDifference) {
  Plane a(8, 8, 100), b(8, 8, 110);
  EXPECT_DOUBLE_EQ(plane_mse(a, b), 100.0);
}

TEST(PlaneMse, DimensionMismatchThrows) {
  Plane a(8, 8), b(8, 4);
  EXPECT_THROW(plane_mse(a, b), std::invalid_argument);
}

TEST(Psnr, IdenticalCapsAt100) {
  Frame a(16, 16), b(16, 16);
  EXPECT_DOUBLE_EQ(psnr_y(a, b), 100.0);
}

TEST(Psnr, KnownValue) {
  Frame a(16, 16), b(16, 16);
  for (auto& px : b.y.data) px = 26;  // diff 10 everywhere -> MSE 100
  EXPECT_NEAR(psnr_y(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-9);
}

TEST(Psnr, MoreDistortionLowerPsnr) {
  Frame ref(16, 16);
  Frame small = ref, big = ref;
  for (auto& px : small.y.data) px += 2;
  for (auto& px : big.y.data) px += 20;
  EXPECT_GT(psnr_y(ref, small), psnr_y(ref, big));
}

TEST(MeanAbsDiff, Basics) {
  Frame a(16, 16), b(16, 16);
  EXPECT_DOUBLE_EQ(mean_abs_diff_y(a, b), 0.0);
  for (auto& px : b.y.data) px = 21;  // +5
  EXPECT_DOUBLE_EQ(mean_abs_diff_y(a, b), 5.0);
}

TEST(RegionMean, ClampsAndAverages) {
  Plane p(4, 4, 10);
  p.at(0, 0) = 50;
  EXPECT_DOUBLE_EQ(region_mean(p, 0, 0, 1, 1), 50.0);
  EXPECT_DOUBLE_EQ(region_mean(p, 0, 0, 2, 1), 30.0);
  EXPECT_DOUBLE_EQ(region_mean(p, -10, -10, 100, 100),
                   (50.0 + 15 * 10.0) / 16.0);
  EXPECT_DOUBLE_EQ(region_mean(p, 3, 3, 2, 2), 0.0);  // inverted: empty
}

TEST(DrawBox, MarksOutline) {
  Frame f(32, 32);
  draw_box(f, {4, 4, 12, 12}, 255);
  EXPECT_EQ(f.y.at(4, 4), 255);
  EXPECT_EQ(f.y.at(11, 4), 255);
  EXPECT_EQ(f.y.at(4, 11), 255);
  EXPECT_EQ(f.y.at(8, 8), 16);  // interior untouched
}

TEST(DrawBox, ClipsToFrame) {
  Frame f(16, 16);
  draw_box(f, {-10, -10, 100, 100}, 200);  // must not crash
  EXPECT_EQ(f.y.at(0, 0), 200);
  EXPECT_EQ(f.y.at(15, 15), 200);
}

TEST(ToPgm, HeaderAndSize) {
  Plane p(4, 2, 7);
  const std::string pgm = to_pgm(p);
  EXPECT_EQ(pgm.substr(0, 3), "P5\n");
  EXPECT_NE(pgm.find("4 2"), std::string::npos);
  EXPECT_EQ(pgm.size(), pgm.find("255\n") + 4 + 8);
}

}  // namespace
}  // namespace dive::video
