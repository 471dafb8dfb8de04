#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace dive::data {

const char* to_string(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kNuScenesLike: return "nuScenes";
    case DatasetKind::kRobotCarLike: return "RobotCar";
    case DatasetKind::kKittiLike: return "KITTI";
  }
  return "?";
}

const char* to_string(MotionState state) {
  switch (state) {
    case MotionState::kStatic: return "static";
    case MotionState::kStraight: return "straight";
    case MotionState::kTurning: return "turning";
  }
  return "?";
}

DatasetSpec nuscenes_like(int clip_count, int frames_per_clip,
                          std::uint64_t seed) {
  DatasetSpec s;
  s.kind = DatasetKind::kNuScenesLike;
  // 1600x900 @ f~1260px scaled to 512 wide.
  s.width = 512;
  s.height = 288;
  s.focal_px = 1260.0 * 512.0 / 1600.0;
  s.fps = 12.0;
  s.clip_count = clip_count;
  s.frames_per_clip = frames_per_clip;
  s.seed = seed;
  // Dense urban scenes: ~4.7 visible cars and ~1.1 pedestrians per frame.
  s.parked_cars_per_100m = 4.5;
  s.moving_cars_per_100m = 2.2;
  s.pedestrians_per_100m = 3.0;
  s.stop_and_go_fraction = 0.25;
  s.turning_fraction = 0.2;
  return s;
}

DatasetSpec robotcar_like(int clip_count, int frames_per_clip,
                          std::uint64_t seed) {
  DatasetSpec s;
  s.kind = DatasetKind::kRobotCarLike;
  // 1280x960 @ f~983px scaled to 512 wide (4:3).
  s.width = 512;
  s.height = 384;
  s.focal_px = 983.0 * 512.0 / 1280.0;
  s.fps = 16.0;
  s.clip_count = clip_count;
  s.frames_per_clip = frames_per_clip;
  s.seed = seed;
  // Oxford city centre: fewer cars (~2.4/frame), more pedestrians
  // (~3.1/frame).
  s.parked_cars_per_100m = 1.4;
  s.moving_cars_per_100m = 1.0;
  s.pedestrians_per_100m = 7.5;
  s.stop_and_go_fraction = 0.3;
  s.turning_fraction = 0.2;
  return s;
}

DatasetSpec kitti_like(int clip_count, int frames_per_clip,
                       std::uint64_t seed) {
  DatasetSpec s;
  s.kind = DatasetKind::kKittiLike;
  // 1242x375 @ f~721px scaled to 512 wide.
  s.width = 512;
  s.height = 160;
  s.focal_px = 721.0 * 512.0 / 1242.0;
  s.fps = 10.0;
  s.clip_count = clip_count;
  s.frames_per_clip = frames_per_clip;
  s.seed = seed;
  // Rural/highway: sparser scenes.
  s.parked_cars_per_100m = 2.5;
  s.moving_cars_per_100m = 2.0;
  s.pedestrians_per_100m = 0.8;
  s.stop_and_go_fraction = 0.15;
  s.turning_fraction = 0.3;  // rotation experiments want turning data
  return s;
}

MotionState classify_motion(const video::EgoState& ego) {
  if (ego.speed < 0.5) return MotionState::kStatic;
  if (std::abs(ego.yaw_rate) > 0.02) return MotionState::kTurning;
  return MotionState::kStraight;
}

namespace {

video::EgoTrajectory make_trajectory(const DatasetSpec& spec, double duration,
                                     util::Rng& rng) {
  const double speed = rng.uniform(6.0, 13.0);
  const double draw = rng.uniform(0.0, 1.0);
  video::PitchWobble wobble;
  wobble.amplitude = rng.uniform(0.0015, 0.0035);
  wobble.frequency = rng.uniform(0.9, 1.8);
  wobble.phase = rng.uniform(0.0, 6.28);

  if (draw < spec.stop_and_go_fraction) {
    // Drive, brake, dwell, re-accelerate; proportions randomized.
    const double brake_s = rng.uniform(1.0, 2.0);
    const double dwell_s = rng.uniform(0.2, 0.35) * duration;
    const double accel_s = rng.uniform(1.5, 2.5);
    const double drive_s =
        std::max(1.0, (duration - brake_s - dwell_s - accel_s) * 0.5);
    const double tail_s =
        std::max(0.5, duration - drive_s - brake_s - dwell_s - accel_s);
    return video::EgoTrajectory(
        {{drive_s, 0.0, 0.0},
         {brake_s, -speed / brake_s, 0.0},
         {dwell_s, 0.0, 0.0},
         {accel_s, speed / accel_s, 0.0},
         {tail_s, 0.0, 0.0}},
        1.5, speed, wobble);
  }
  if (draw < spec.stop_and_go_fraction + spec.turning_fraction) {
    const double turn_deg =
        rng.uniform(25.0, 80.0) * (rng.chance(0.5) ? 1.0 : -1.0);
    const double turn_s = rng.uniform(0.25, 0.4) * duration;
    const double lead_s = rng.uniform(0.2, 0.35) * duration;
    const double tail_s = std::max(0.5, duration - lead_s - turn_s);
    return video::EgoTrajectory(
        {{lead_s, 0.0, 0.0},
         {turn_s, 0.0, turn_deg * 3.14159265 / 180.0 / turn_s},
         {tail_s, 0.0, 0.0}},
        1.5, speed, wobble);
  }
  return video::EgoTrajectory({{duration, 0.0, 0.0}}, 1.5, speed, wobble);
}

}  // namespace

Clip generate_clip(const DatasetSpec& spec, int clip_index) {
  util::Rng root(spec.seed);
  util::Rng rng = root.fork(static_cast<std::uint64_t>(clip_index));

  const double duration = spec.frames_per_clip / spec.fps;
  video::EgoTrajectory trajectory = make_trajectory(spec, duration + 0.5, rng);
  if (spec.vibration.enabled()) {
    // Dedicated fork: enabling vibration must not perturb the scene /
    // noise / imu streams of the base world.
    util::Rng vib_rng = rng.fork(4);
    video::CameraVibration vib = spec.vibration;
    vib.pitch_phase = vib_rng.uniform(0.0, 6.28318530718);
    vib.yaw_phase = vib_rng.uniform(0.0, 6.28318530718);
    trajectory.set_vibration(vib);
  }

  // Corridor length: from a little behind the start to past the farthest
  // point the ego reaches plus visibility range.
  double z_max = 0.0;
  double x_extent = 0.0;
  for (double t = 0.0; t <= duration; t += 0.25) {
    const auto st = trajectory.state_at(t);
    z_max = std::max(z_max, st.position.z);
    x_extent = std::max(x_extent, std::abs(st.position.x));
  }
  const double z_lo = -40.0 - x_extent;
  const double z_hi = z_max + 140.0 + x_extent;
  const double corridor_m = z_hi - z_lo;

  video::SceneParams scene_params;
  scene_params.conditions = spec.conditions;
  scene_params.luma_noise_amplitude = spec.luma_noise_amplitude;
  video::Scene scene(scene_params);
  util::Rng scene_rng = rng.fork(1);
  scene.add_buildings(z_lo, z_hi, scene_rng);
  scene.add_parked_cars(
      static_cast<int>(spec.parked_cars_per_100m * corridor_m / 100.0), z_lo,
      z_hi, scene_rng);
  scene.add_moving_cars(
      static_cast<int>(spec.moving_cars_per_100m * corridor_m / 100.0), z_lo,
      z_hi, scene_rng);
  scene.add_pedestrians(
      static_cast<int>(spec.pedestrians_per_100m * corridor_m / 100.0), z_lo,
      z_hi, scene_rng);

  Clip clip;
  clip.index = clip_index;
  clip.camera = geom::PinholeCamera(spec.focal_px, spec.width, spec.height);
  clip.fps = spec.fps;

  video::RenderOptions render_options;
  render_options.rain_streak_density = spec.rain_streak_density;
  const video::Renderer renderer(clip.camera, render_options);
  // Seeds come off the noise stream serially, in frame order, so each
  // frame's render is a pure function of its index and the frames can be
  // rendered on any number of lanes with the same result.
  util::Rng noise_rng = rng.fork(2);
  const int frame_count = spec.frames_per_clip;
  std::vector<std::uint64_t> noise_seeds(static_cast<std::size_t>(frame_count));
  for (std::uint64_t& seed : noise_seeds)
    seed = static_cast<std::uint64_t>(noise_rng.uniform_int(0, 1 << 30));
  clip.frames.resize(static_cast<std::size_t>(frame_count));
  util::ThreadPool pool(std::max(
      1, std::min(util::ThreadPool::resolve_thread_count(0), frame_count)));
  pool.parallel_for(0, frame_count, [&](int i) {
    const double t = i / spec.fps;
    FrameRecord& rec = clip.frames[static_cast<std::size_t>(i)];
    rec.timestamp = t;
    rec.ego = trajectory.state_at(t);
    // Motion-state labels classify the drive, not the camera shake: the
    // vibration-free base state keeps Fig. 14 buckets stable under the
    // vibration condition.
    rec.motion_state = classify_motion(trajectory.base_state_at(t));
    auto rendered = renderer.render(scene, t, rec.ego.camera_pose(),
                                    noise_seeds[static_cast<std::size_t>(i)]);
    rec.image = std::move(rendered.frame);
    rec.objects = std::move(rendered.objects);
  });

  if (spec.kind == DatasetKind::kKittiLike) {
    util::Rng imu_rng = rng.fork(3);
    clip.imu = video::synthesize_imu(trajectory, {}, imu_rng);
  }
  return clip;
}

std::vector<Clip> generate_dataset(const DatasetSpec& spec) {
  std::vector<Clip> clips;
  clips.reserve(static_cast<std::size_t>(spec.clip_count));
  for (int i = 0; i < spec.clip_count; ++i)
    clips.push_back(generate_clip(spec, i));
  return clips;
}

DatasetStats accumulate_stats(const DatasetSpec&,
                              const std::vector<Clip>& clips) {
  DatasetStats stats;
  stats.clips = static_cast<int>(clips.size());
  for (const auto& clip : clips) {
    stats.frames += clip.frame_count();
    for (const auto& f : clip.frames) {
      for (const auto& obj : f.objects) {
        if (obj.cls == video::ObjectClass::kCar) ++stats.cars;
        else if (obj.cls == video::ObjectClass::kPedestrian) ++stats.pedestrians;
      }
    }
  }
  return stats;
}

}  // namespace dive::data
