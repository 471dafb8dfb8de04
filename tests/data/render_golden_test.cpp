// Render goldens: the dataset generator's complete output for short
// clips of every preset, in clear weather and under each hostile
// condition, pinned by FNV-1a digest. The digest covers every field a
// consumer can read: the Y/U/V planes, each frame's timestamp, ego state
// and motion state, every RenderedObject field (doubles by bit pattern),
// the clip's camera and frame rate, and the KITTI-like IMU stream.
//
// Every case is checked with the frame pool at 1, 2 and 4 lanes (set
// through DIVE_THREADS, which generate_clip's pool reads), so the digests
// also pin that a clip does not depend on how its frames were spread over
// threads.
//
// If this test fails and the change is INTENTIONAL (a deliberate change
// to the world, the shading or the noise), re-bake: copy the "actual"
// digests the failure prints into kGolden and say so in the commit
// message. If it is NOT intentional, the renderer or generator drifted.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "data/dataset.h"

namespace dive::data {
namespace {

class Fnv1a {
 public:
  void bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const auto b = static_cast<std::uint8_t>(v >> (8 * i));
      bytes(&b, 1);
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void vec3(const geom::Vec3& v) {
    f64(v.x);
    f64(v.y);
    f64(v.z);
  }
  void plane(const video::Plane& p) {
    i64(p.width);
    i64(p.height);
    u64(p.data.size());
    bytes(p.data.data(), p.data.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t clip_digest(const Clip& clip) {
  Fnv1a h;
  h.i64(clip.index);
  h.f64(clip.camera.focal());
  h.i64(clip.camera.width());
  h.i64(clip.camera.height());
  h.f64(clip.fps);
  h.u64(clip.frames.size());
  for (const FrameRecord& rec : clip.frames) {
    h.plane(rec.image.y);
    h.plane(rec.image.u);
    h.plane(rec.image.v);
    h.f64(rec.timestamp);
    h.vec3(rec.ego.position);
    h.f64(rec.ego.yaw);
    h.f64(rec.ego.pitch);
    h.f64(rec.ego.speed);
    h.f64(rec.ego.yaw_rate);
    h.f64(rec.ego.pitch_rate);
    h.f64(rec.ego.accel);
    h.i64(static_cast<int>(rec.motion_state));
    h.u64(rec.objects.size());
    for (const video::RenderedObject& o : rec.objects) {
      h.i64(o.object_index);
      h.i64(static_cast<int>(o.cls));
      h.f64(o.pixel_box.x0);
      h.f64(o.pixel_box.y0);
      h.f64(o.pixel_box.x1);
      h.f64(o.pixel_box.y1);
      h.i64(o.pixel_count);
      h.f64(o.depth);
    }
  }
  h.u64(clip.imu.size());
  for (const video::ImuSample& s : clip.imu) {
    h.f64(s.timestamp);
    h.vec3(s.gyro);
    h.vec3(s.accel);
  }
  return h.value();
}

enum class Condition { kClear, kNight, kFog, kRain, kTunnel, kVibration, kCrowd };

const char* name(Condition c) {
  switch (c) {
    case Condition::kClear: return "clear";
    case Condition::kNight: return "night";
    case Condition::kFog: return "fog";
    case Condition::kRain: return "rain";
    case Condition::kTunnel: return "tunnel";
    case Condition::kVibration: return "vibration";
    case Condition::kCrowd: return "crowd";
  }
  return "?";
}

/// Short clip of `kind` under `c`. The condition values are the scenario
/// fuzzer's presets, written out here so the goldens do not move when
/// those presets are retuned.
DatasetSpec golden_spec(DatasetKind kind, Condition c) {
  constexpr int kFrames = 6;
  DatasetSpec spec = kind == DatasetKind::kRobotCarLike
                         ? robotcar_like(1, kFrames)
                     : kind == DatasetKind::kNuScenesLike
                         ? nuscenes_like(1, kFrames)
                         : kitti_like(1, kFrames);
  switch (c) {
    case Condition::kClear:
      break;
    case Condition::kNight:
      spec.conditions.luma_scale = 0.45;
      spec.luma_noise_amplitude = 4.0;
      break;
    case Condition::kFog:
      spec.conditions.fog_attenuation = 0.035;
      spec.conditions.fog_luma = 155.0;
      break;
    case Condition::kRain:
      spec.conditions.fog_attenuation = 0.015;
      spec.rain_streak_density = 0.45;
      spec.luma_noise_amplitude = 2.5;
      break;
    case Condition::kTunnel: {
      // Frames 2 and 3 of 6 fall inside the tunnel.
      const double duration = spec.frames_per_clip / spec.fps;
      spec.conditions.tunnels = {{0.30 * duration, 0.62 * duration, 0.25}};
      break;
    }
    case Condition::kVibration:
      spec.vibration.pitch_amplitude = 0.0035;
      spec.vibration.yaw_amplitude = 0.004;
      spec.vibration.frequency = 9.0;
      break;
    case Condition::kCrowd:
      spec.pedestrians_per_100m = 16.0;
      spec.parked_cars_per_100m = 7.0;
      spec.moving_cars_per_100m = 3.0;
      break;
  }
  return spec;
}

struct Golden {
  Condition condition;
  std::uint64_t digest;
};

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

void expect_goldens(DatasetKind kind, const Golden (&goldens)[7]) {
  for (const char* lanes : {"1", "2", "4"}) {
    for (const Golden& g : goldens) {
      const std::uint64_t digest =
          clip_digest(generate_at(golden_spec(kind, g.condition), lanes));
      EXPECT_EQ(digest, g.digest)
          << to_string(kind) << " " << name(g.condition) << " at " << lanes
          << " lanes, actual 0x" << std::hex << digest << "ULL";
    }
  }
}

TEST(RenderGolden, RobotCarLike) {
  constexpr Golden kGolden[] = {
      {Condition::kClear, 0xf9944f5013011a15ULL},
      {Condition::kNight, 0x35e6a977815351f3ULL},
      {Condition::kFog, 0xee5acf5a19ae4894ULL},
      {Condition::kRain, 0x3f5525ef959eb39eULL},
      {Condition::kTunnel, 0x8580993782f139d0ULL},
      {Condition::kVibration, 0xf3d58451c92cbf15ULL},
      {Condition::kCrowd, 0x31097493d2f8abebULL},
  };
  expect_goldens(DatasetKind::kRobotCarLike, kGolden);
}

TEST(RenderGolden, NuScenesLike) {
  constexpr Golden kGolden[] = {
      {Condition::kClear, 0xe597996fe4e783c2ULL},
      {Condition::kNight, 0xc1a0fbc9bcfffcefULL},
      {Condition::kFog, 0x86886e27675a5f96ULL},
      {Condition::kRain, 0x153018a85bb713ffULL},
      {Condition::kTunnel, 0x59309bb9515399e2ULL},
      {Condition::kVibration, 0x57468b57caaf848dULL},
      {Condition::kCrowd, 0x8e1085bff5a2c2c3ULL},
  };
  expect_goldens(DatasetKind::kNuScenesLike, kGolden);
}

TEST(RenderGolden, KittiLikeWithImu) {
  constexpr Golden kGolden[] = {
      {Condition::kClear, 0x0852de871bab0847ULL},
      {Condition::kNight, 0xaa7982480493065aULL},
      {Condition::kFog, 0xeb285e5f19146a9bULL},
      {Condition::kRain, 0x5d8a38ea3ab8ef20ULL},
      {Condition::kTunnel, 0x1cce1f2d2ace723cULL},
      {Condition::kVibration, 0x76872eef5ce1728eULL},
      {Condition::kCrowd, 0xb59c0ec42a7ba250ULL},
  };
  expect_goldens(DatasetKind::kKittiLike, kGolden);
}

}  // namespace
}  // namespace dive::data
