#include "core/offline_tracker.h"

#include <gtest/gtest.h>

namespace dive::core {
namespace {

constexpr auto kCar = video::ObjectClass::kCar;

codec::MotionField uniform_field(int cols, int rows, codec::MotionVector mv) {
  codec::MotionField f(cols, rows);
  for (auto& v : f.mvs) v = mv;
  return f;
}

TEST(OfflineTracker, ShiftsBoxByMeanMv) {
  const OfflineTracker tracker;
  // Uniform field of +4 px horizontal motion (8 half-pel).
  const auto field = uniform_field(8, 8, {8, 0});
  const edge::DetectionList prev = {{kCar, {32, 32, 64, 64}, 0.9}};
  const auto out = tracker.track(prev, field, 128, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].box.x0, 36.0);
  EXPECT_DOUBLE_EQ(out[0].box.x1, 68.0);
  EXPECT_DOUBLE_EQ(out[0].box.y0, 32.0);
}

TEST(OfflineTracker, UsesOnlyVectorsInsideBox) {
  const OfflineTracker tracker;
  codec::MotionField field(8, 8);
  // Box covers MB (2,2)-(3,3); give those +6 px, everything else -20.
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      field.at(c, r) = (c >= 2 && c <= 3 && r >= 2 && r <= 3)
                           ? codec::MotionVector{12, 0}
                           : codec::MotionVector{-40, 0};
  const edge::DetectionList prev = {{kCar, {32, 32, 64, 64}, 0.9}};
  const auto out = tracker.track(prev, field, 128, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].box.x0, 38.0);
}

TEST(OfflineTracker, EmptyFieldKeepsBoxes) {
  const OfflineTracker tracker;
  const edge::DetectionList prev = {{kCar, {10, 10, 30, 30}, 0.8}};
  const auto out = tracker.track(prev, {}, 128, 128);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].box.x0, 10.0);
}

TEST(OfflineTracker, DropsBoxesLeavingFrame) {
  const OfflineTracker tracker;
  const auto field = uniform_field(8, 8, {-60, 0});  // -30 px per frame
  edge::DetectionList boxes = {{kCar, {5, 40, 45, 80}, 0.9}};
  boxes = tracker.track(boxes, field, 128, 128);
  // First step clips hard; within a couple of steps the box is gone.
  for (int i = 0; i < 3 && !boxes.empty(); ++i)
    boxes = tracker.track(boxes, field, 128, 128);
  EXPECT_TRUE(boxes.empty());
}

TEST(OfflineTracker, ConfidenceDecays) {
  constexpr double kDecay = OfflineTracker::kConfidenceDecay;
  static_assert(kDecay == 0.92);
  const OfflineTracker tracker;
  const auto field = uniform_field(8, 8, {0, 0});
  edge::DetectionList boxes = {{kCar, {32, 32, 64, 64}, 1.0}};
  boxes = tracker.track(boxes, field, 128, 128);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_DOUBLE_EQ(boxes[0].confidence, kDecay);
  boxes = tracker.track(boxes, field, 128, 128);
  EXPECT_DOUBLE_EQ(boxes[0].confidence, kDecay * kDecay);
}

TEST(OfflineTracker, TracksMultipleObjectsIndependently) {
  const OfflineTracker tracker;
  codec::MotionField field(8, 8);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      field.at(c, r) = c < 4 ? codec::MotionVector{8, 0}
                             : codec::MotionVector{0, 8};
  const edge::DetectionList prev = {
      {kCar, {16, 16, 48, 48}, 0.9},
      {video::ObjectClass::kPedestrian, {80, 16, 112, 48}, 0.8}};
  const auto out = tracker.track(prev, field, 128, 128);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].box.x0, 20.0);  // moved right
  EXPECT_DOUBLE_EQ(out[1].box.y0, 20.0);  // moved down
}

}  // namespace
}  // namespace dive::core
