#include "video/imu.h"

namespace dive::video {

namespace {

constexpr double kRateHz = 100.0;  ///< IMU sample rate

}  // namespace

std::vector<ImuSample> synthesize_imu(const EgoTrajectory& trajectory,
                                      const ImuOptions& options,
                                      util::Rng& rng) {
  std::vector<ImuSample> out;
  const double dt = 1.0 / kRateHz;
  const double duration = trajectory.total_duration();
  out.reserve(static_cast<std::size_t>(duration / dt) + 1);
  constexpr double kGravity = 9.81;

  for (double t = 0.0; t <= duration; t += dt) {
    const EgoState st = trajectory.state_at(t);
    ImuSample s;
    s.timestamp = t;
    s.gyro = {st.pitch_rate + rng.gaussian(0.0, options.gyro_noise),
              st.yaw_rate + rng.gaussian(0.0, options.gyro_noise),
              rng.gaussian(0.0, options.gyro_noise)};
    // Camera frame, y-down: gravity reads +g on y; longitudinal accel on z;
    // centripetal (v * yaw_rate) on x.
    s.accel = {st.speed * st.yaw_rate + rng.gaussian(0.0, options.accel_noise),
               kGravity + rng.gaussian(0.0, options.accel_noise),
               st.accel + rng.gaussian(0.0, options.accel_noise)};
    out.push_back(s);
  }
  return out;
}

geom::Vec3 mean_gyro(const std::vector<ImuSample>& samples, double t0,
                     double t1) {
  geom::Vec3 acc;
  int n = 0;
  for (const auto& s : samples) {
    if (s.timestamp >= t0 && s.timestamp < t1) {
      acc += s.gyro;
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : geom::Vec3{};
}

}  // namespace dive::video
