#include "core/motion_model.h"

#include <gtest/gtest.h>

namespace dive::core {
namespace {

constexpr double kFocal = 400.0;

TEST(MotionModel, PureYawUniformAtCenterRow) {
  // Eq. (5): at the principal point a yaw of dphi_y shifts the image by
  // -dphi_y * f horizontally.
  const Rotation rot{0.0, 0.01};
  const auto mv = rotational_mv({0, 0}, rot, kFocal);
  EXPECT_DOUBLE_EQ(mv.x, -4.0);
  EXPECT_DOUBLE_EQ(mv.y, 0.0);
}

TEST(MotionModel, PurePitchShiftsVertically) {
  const Rotation rot{0.005, 0.0};
  const auto mv = rotational_mv({0, 0}, rot, kFocal);
  EXPECT_DOUBLE_EQ(mv.x, 0.0);
  EXPECT_DOUBLE_EQ(mv.y, 2.0);
}

TEST(MotionModel, YawQuadraticTermGrowsOffAxis) {
  const Rotation rot{0.0, 0.01};
  const auto center = rotational_mv({0, 0}, rot, kFocal);
  const auto edge = rotational_mv({200, 0}, rot, kFocal);
  // |vx| grows with x^2/f away from the axis.
  EXPECT_GT(std::abs(edge.x), std::abs(center.x));
  EXPECT_NEAR(edge.x, -0.01 * kFocal - 0.01 * 200.0 * 200.0 / kFocal, 1e-9);
}

TEST(MotionModel, TranslationalFlowRadial) {
  // Eq. (2): flow points away from the FOE, scaled by depth.
  const auto mv = translational_mv({100, 50}, 1.0, 20.0);
  EXPECT_DOUBLE_EQ(mv.x, 5.0);
  EXPECT_DOUBLE_EQ(mv.y, 2.5);
  // Parallel to the position vector.
  EXPECT_NEAR(mv.x * 50 - mv.y * 100, 0.0, 1e-12);
}

TEST(MotionModel, TranslationalFlowInverseDepth) {
  const auto near_mv = translational_mv({100, 50}, 1.0, 10.0);
  const auto far_mv = translational_mv({100, 50}, 1.0, 40.0);
  EXPECT_NEAR(near_mv.norm() / far_mv.norm(), 4.0, 1e-12);
}

TEST(MotionModel, NormalizedMagnitudeConstantPerHeight) {
  // Observation 2: points at the same world height Y share the same
  // normalized magnitude regardless of image position/depth.
  const double f = kFocal;
  const double dz = 0.8;
  const double height = 1.5;  // ground, camera frame y-down
  for (double depth : {8.0, 15.0, 40.0}) {
    for (double x_img : {-150.0, 0.0, 120.0}) {
      const double y_img = f * height / depth;
      const geom::Vec2 p{x_img, y_img};
      const auto mv = translational_mv(p, dz, depth);
      const double nm = normalized_magnitude(p, mv);
      EXPECT_NEAR(nm, dz / (f * height), 1e-12)
          << "depth=" << depth << " x=" << x_img;
    }
  }
}

TEST(MotionModel, NormalizedMagnitudeOrdersByHeight) {
  // Lower world points (larger Y, the ground) have *smaller* normalized
  // magnitude than elevated points — the ground-estimation premise.
  const double f = kFocal;
  const double dz = 0.8;
  const double depth = 20.0;
  const double y_ground = f * 1.5 / depth;
  const double y_mid = f * 0.7 / depth;
  const auto nm_ground = normalized_magnitude(
      {50, y_ground}, translational_mv({50, y_ground}, dz, depth));
  const auto nm_mid = normalized_magnitude(
      {50, y_mid}, translational_mv({50, y_mid}, dz, depth));
  EXPECT_LT(nm_ground, nm_mid);
}

TEST(MotionModel, NormalizedMagnitudeInvalidAboveHorizon) {
  EXPECT_DOUBLE_EQ(normalized_magnitude({10, -5}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(normalized_magnitude({0, 0}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace dive::core
