// Synthetic dataset generators standing in for nuScenes, RobotCar, and
// KITTI (Sec. II-E / Table I). Each dataset keeps its real frame rate and
// aspect ratio (at reduced resolution with field-of-view-preserving focal
// scaling) and is calibrated to the paper's per-frame object densities:
//   nuScenes (Table I): 9605 frames, 45605 cars (~4.7/frame), 10221 peds (~1.1/frame)
//   RobotCar (Table I): 8150 frames, 19365 cars (~2.4/frame), 25423 peds (~3.1/frame)
// KITTI-like clips additionally carry 100 Hz IMU for rotation ground
// truth (Fig. 7 / Fig. 10 experiments).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/pinhole_camera.h"
#include "video/imu.h"
#include "video/renderer.h"
#include "video/scene.h"
#include "video/trajectory.h"

namespace dive::data {

enum class DatasetKind : std::uint8_t {
  kNuScenesLike = 0,
  kRobotCarLike = 1,
  kKittiLike = 2,
};

const char* to_string(DatasetKind kind);

/// Ego motion category used by the Fig. 14 breakdown.
enum class MotionState : std::uint8_t { kStatic = 0, kStraight = 1, kTurning = 2 };

const char* to_string(MotionState state);

struct DatasetSpec {
  DatasetKind kind = DatasetKind::kNuScenesLike;
  int width = 512;        ///< multiple of 16
  int height = 288;       ///< multiple of 16
  double focal_px = 403.0;
  double fps = 12.0;
  int clip_count = 6;
  int frames_per_clip = 96;
  std::uint64_t seed = 2025;

  // Scene densities, per 100 m of corridor.
  double parked_cars_per_100m = 5.0;
  double moving_cars_per_100m = 3.0;
  double pedestrians_per_100m = 2.0;

  // Trajectory profile mix.
  double stop_and_go_fraction = 0.25;
  double turning_fraction = 0.2;

  // ---- Hostile-conditions layer (DESIGN.md §16) ----
  // Defaults are a no-op: a default-conditions spec generates clips
  // bit-identical to a build without the layer.

  /// Scene/illumination conditions (night, fog haze, tunnel luma steps).
  video::SceneConditions conditions;
  /// Per-pixel sensor noise amplitude forwarded to SceneParams (night
  /// presets elevate it).
  double luma_noise_amplitude = 1.5;
  /// Rain droplet streaks (RenderOptions::rain_streak_density).
  double rain_streak_density = 0.0;
  /// Camera rotation jitter injected into every clip's trajectory.
  /// Phases are drawn per clip from the clip's forked RNG stream, so
  /// amplitudes/frequency here fully determine the ensemble.
  video::CameraVibration vibration;
};

/// Paper-matched presets (reduced resolution; see DESIGN.md).
DatasetSpec nuscenes_like(int clip_count = 6, int frames_per_clip = 96,
                          std::uint64_t seed = 2025);
DatasetSpec robotcar_like(int clip_count = 4, int frames_per_clip = 96,
                          std::uint64_t seed = 4051);
DatasetSpec kitti_like(int clip_count = 6, int frames_per_clip = 80,
                       std::uint64_t seed = 1207);

/// One rendered frame with full ground truth.
struct FrameRecord {
  video::Frame image;
  std::vector<video::RenderedObject> objects;
  video::EgoState ego;
  double timestamp = 0.0;
  MotionState motion_state = MotionState::kStraight;
};

struct Clip {
  int index = 0;
  geom::PinholeCamera camera{1.0, 16, 16};
  double fps = 12.0;
  std::vector<FrameRecord> frames;
  std::vector<video::ImuSample> imu;  ///< populated for KITTI-like clips

  [[nodiscard]] int frame_count() const {
    return static_cast<int>(frames.size());
  }
};

/// Classify an ego state into the paper's three motion states.
MotionState classify_motion(const video::EgoState& ego);

/// Deterministically generates clip `clip_index` of the dataset. The
/// frames render in parallel on a util::ThreadPool sized like the
/// encoder's (DIVE_THREADS, else hardware threads), capped at the frame
/// count; the clip is byte-identical at any lane count, and
/// DIVE_THREADS=1 renders serially on the calling thread.
Clip generate_clip(const DatasetSpec& spec, int clip_index);

/// Aggregate annotation statistics (Table I).
struct DatasetStats {
  int clips = 0;
  long frames = 0;
  long cars = 0;
  long pedestrians = 0;
};

DatasetStats accumulate_stats(const DatasetSpec& spec,
                              const std::vector<Clip>& clips);

/// Generates all clips of a dataset (convenience for the harness).
std::vector<Clip> generate_dataset(const DatasetSpec& spec);

}  // namespace dive::data
