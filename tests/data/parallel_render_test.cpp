// generate_clip renders its frames on a ThreadPool sized by DIVE_THREADS.
// This runs one clip at 4 lanes and at 1 and compares every field, so
// under ThreadSanitizer (label tsan) it also checks that frames render
// concurrently without sharing mutable state.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "data/dataset.h"

namespace dive::data {
namespace {

/// generate_clip(spec, 0) with DIVE_THREADS set to `lanes`; the previous
/// value is restored.
Clip generate_at(const DatasetSpec& spec, const char* lanes) {
  std::optional<std::string> saved;
  if (const char* old = std::getenv("DIVE_THREADS")) saved = old;
  ::setenv("DIVE_THREADS", lanes, 1);
  Clip clip = generate_clip(spec, 0);
  if (saved) ::setenv("DIVE_THREADS", saved->c_str(), 1);
  else ::unsetenv("DIVE_THREADS");
  return clip;
}

TEST(ParallelRender, FourLanesMatchOneLaneFieldForField) {
  // KITTI-like for the IMU stream, with rain so the streak layout (a hash
  // of each frame's noise seed) is exercised too.
  DatasetSpec spec = kitti_like(1, 12);
  spec.rain_streak_density = 0.3;
  const Clip serial = generate_at(spec, "1");
  const Clip parallel = generate_at(spec, "4");

  ASSERT_EQ(parallel.frame_count(), serial.frame_count());
  for (int i = 0; i < serial.frame_count(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    const FrameRecord& a = serial.frames[static_cast<std::size_t>(i)];
    const FrameRecord& b = parallel.frames[static_cast<std::size_t>(i)];
    EXPECT_EQ(b.image, a.image);
    EXPECT_EQ(b.timestamp, a.timestamp);
    EXPECT_EQ(b.ego.position, a.ego.position);
    EXPECT_EQ(b.ego.yaw, a.ego.yaw);
    EXPECT_EQ(b.ego.pitch, a.ego.pitch);
    EXPECT_EQ(b.ego.speed, a.ego.speed);
    EXPECT_EQ(b.ego.yaw_rate, a.ego.yaw_rate);
    EXPECT_EQ(b.ego.pitch_rate, a.ego.pitch_rate);
    EXPECT_EQ(b.ego.accel, a.ego.accel);
    EXPECT_EQ(b.motion_state, a.motion_state);
    ASSERT_EQ(b.objects.size(), a.objects.size());
    for (std::size_t k = 0; k < a.objects.size(); ++k) {
      EXPECT_EQ(b.objects[k].object_index, a.objects[k].object_index);
      EXPECT_EQ(b.objects[k].cls, a.objects[k].cls);
      EXPECT_EQ(b.objects[k].pixel_box, a.objects[k].pixel_box);
      EXPECT_EQ(b.objects[k].pixel_count, a.objects[k].pixel_count);
      EXPECT_EQ(b.objects[k].depth, a.objects[k].depth);
    }
  }
  ASSERT_EQ(parallel.imu.size(), serial.imu.size());
  for (std::size_t k = 0; k < serial.imu.size(); ++k) {
    EXPECT_EQ(parallel.imu[k].timestamp, serial.imu[k].timestamp);
    EXPECT_EQ(parallel.imu[k].gyro, serial.imu[k].gyro);
    EXPECT_EQ(parallel.imu[k].accel, serial.imu[k].accel);
  }
}

}  // namespace
}  // namespace dive::data
