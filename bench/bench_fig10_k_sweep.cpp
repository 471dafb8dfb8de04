// Fig. 10: effect of the number of R-sampling points k — rotation
// estimation error (a) and RANSAC time cost (b) as k sweeps 10..100.
// The paper picks k = 70 (error converges there, cost is linear in k).
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "codec/encoder.h"
#include "core/rotation_estimator.h"
#include "util/stats.h"

int main() {
  using namespace dive;
  bench::print_header(
      "Fig. 10: effect of the number of sampled points k",
      "error decreases with k and converges near k=70; time linear in k");

  const auto spec = bench::scaled(data::kitti_like(), 3, 56);
  const int k_step = util::env_int("DIVE_BENCH_K_STEP", 10);

  // Pre-compute the motion fields once (they do not depend on k).
  struct FrameSample {
    codec::MotionField field;
    geom::Vec3 gt;
    double fps;
    geom::PinholeCamera camera{1.0, 16, 16};
  };
  std::vector<FrameSample> samples;
  for (int c = 0; c < spec.clip_count; ++c) {
    const auto clip = data::generate_clip(spec, c);
    codec::Encoder enc({.width = spec.width, .height = spec.height});
    for (int i = 0; i < clip.frame_count(); ++i) {
      const auto& rec = clip.frames[static_cast<std::size_t>(i)];
      auto field = enc.analyze_motion(rec.image);
      enc.encode(rec.image, 24, nullptr, field.empty() ? nullptr : &field);
      if (field.empty() || rec.ego.speed < 2.0) continue;
      FrameSample s;
      s.field = std::move(field);
      s.gt = video::mean_gyro(
          clip.imu, clip.frames[static_cast<std::size_t>(i - 1)].timestamp,
          rec.timestamp);
      s.fps = clip.fps;
      s.camera = clip.camera;
      samples.push_back(std::move(s));
    }
  }

  util::TextTable t("Fig. 10: rotation error and time cost vs k");
  t.set_header({"k", "mean |err wx| (rad/s)", "mean |err wy| (rad/s)",
                "time per frame (ms)"});
  for (int k = 10; k <= 100; k += k_step) {
    core::RotationEstimatorConfig cfg;
    cfg.sample_count = k;
    core::RotationEstimator estimator(cfg, 23);
    util::RunningStats ex, ey;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& s : samples) {
      const auto est = estimator.estimate(s.field, s.camera);
      if (!est) continue;
      ex.add(std::abs(est->rotation.dphi_x * s.fps - s.gt.x));
      ey.add(std::abs(est->rotation.dphi_y * s.fps - s.gt.y));
    }
    const auto elapsed = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    t.add_row({std::to_string(k), util::TextTable::fmt(ex.mean(), 4),
               util::TextTable::fmt(ey.mean(), 4),
               util::TextTable::fmt(
                   elapsed / std::max<std::size_t>(1, samples.size()), 3)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(%zu frames per k setting)\n", samples.size());
  return 0;
}
