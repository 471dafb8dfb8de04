#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dive::core {
namespace {

const geom::PinholeCamera kCamera(400.0, 512, 288);

codec::MotionField field_of(Rotation rot, double dz) {
  codec::MotionField field(32, 18);
  for (int row = 0; row < field.mb_rows; ++row)
    for (int col = 0; col < field.mb_cols; ++col) {
      const geom::Vec2 p = kCamera.to_centered(field.mb_center(col, row));
      const double depth = p.y > 4.0 ? 400.0 * 1.5 / p.y : 30.0;
      const geom::Vec2 mv = translational_mv(p, dz, depth) +
                            rotational_mv(p, rot, kCamera.focal());
      field.at(col, row) = {static_cast<int>(std::lround(mv.x * 2)),
                            static_cast<int>(std::lround(mv.y * 2))};
    }
  return field;
}

TEST(Preprocess, EmptyFieldIsInert) {
  Preprocessor pre({}, 1);
  const auto result = pre.run({}, kCamera);
  EXPECT_TRUE(result.mvs.empty());
  EXPECT_FALSE(result.agent_moving);
}

TEST(Preprocess, MovingJudgedByEta) {
  Preprocessor pre({}, 2);
  const auto moving = pre.run(field_of({}, 1.0), kCamera);
  EXPECT_GT(moving.eta, 0.15);
  EXPECT_TRUE(moving.agent_moving);

  const auto stopped = pre.run(codec::MotionField(32, 18), kCamera);
  EXPECT_DOUBLE_EQ(stopped.eta, 0.0);
  EXPECT_FALSE(stopped.agent_moving);
}

TEST(Preprocess, EtaThresholdConfigurable) {
  // The threshold is the constant kEtaThreshold; the judgement is strict.
  // 20 MBs with 3 nonzero vectors sit exactly on it, 4 clear it.
  static_assert(Preprocessor::kEtaThreshold == 0.15);
  Preprocessor pre({}, 3);
  codec::MotionField field(20, 1);
  for (int col = 0; col < 3; ++col) field.at(col, 0) = {2, 0};
  const auto on = pre.run(field, kCamera);
  EXPECT_DOUBLE_EQ(on.eta, Preprocessor::kEtaThreshold);
  EXPECT_FALSE(on.agent_moving);
  field.at(3, 0) = {2, 0};
  const auto above = pre.run(field, kCamera);
  EXPECT_DOUBLE_EQ(above.eta, 0.2);
  EXPECT_TRUE(above.agent_moving);
}

TEST(Preprocess, RotationRemovedFromVectors) {
  Preprocessor pre({}, 4);
  const Rotation rot{0.002, -0.008};
  const auto result = pre.run(field_of(rot, 0.9), kCamera);
  ASSERT_TRUE(result.rotation_valid);
  EXPECT_NEAR(result.rotation.dphi_y, rot.dphi_y, 1e-3);

  // After correction, every static vector should again point away from
  // the FOE (radial): check alignment for vectors with usable magnitude.
  int checked = 0;
  for (const auto& m : result.mvs) {
    if (m.corrected.norm() < 2.0 || m.position.y < 8.0) continue;
    const geom::Vec2 radial = (m.position - geom::Vec2{0, 0}).normalized();
    const double cosine = m.corrected.normalized().dot(radial);
    EXPECT_GT(cosine, 0.85) << "at (" << m.position.x << "," << m.position.y
                            << ")";
    ++checked;
  }
  EXPECT_GT(checked, 30);
}

TEST(Preprocess, NoRotationEstimateWhenStopped) {
  Preprocessor pre({}, 5);
  const auto result = pre.run(codec::MotionField(32, 18), kCamera);
  EXPECT_FALSE(result.rotation_valid);
  // Corrected equals raw in that case.
  for (const auto& m : result.mvs) {
    EXPECT_EQ(m.corrected.x, m.raw.x);
    EXPECT_EQ(m.corrected.y, m.raw.y);
  }
}

TEST(Preprocess, GeometryMatchesField) {
  Preprocessor pre({}, 6);
  const auto result = pre.run(field_of({}, 1.0), kCamera);
  EXPECT_EQ(result.mb_cols, 32);
  EXPECT_EQ(result.mb_rows, 18);
  ASSERT_EQ(result.mvs.size(), 32u * 18u);
  // Entries are row-major with centered positions.
  const auto& first = result.mvs.front();
  EXPECT_EQ(first.col, 0);
  EXPECT_EQ(first.row, 0);
  EXPECT_LT(first.position.x, 0.0);
  EXPECT_LT(first.position.y, 0.0);
}

TEST(Preprocess, NonzeroFlagTracksRawVector) {
  codec::MotionField field(4, 4);
  field.at(2, 2) = {4, 0};
  Preprocessor pre({}, 7);
  const auto result = pre.run(field, kCamera);
  int nonzero = 0;
  for (const auto& m : result.mvs) nonzero += m.nonzero ? 1 : 0;
  EXPECT_EQ(nonzero, 1);
}

}  // namespace
}  // namespace dive::core
