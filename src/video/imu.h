// Synthetic IMU aligned with the camera, mirroring the KITTI setup the
// paper uses to obtain rotation ground truth for the R-sampling
// experiments (Sec. III-B3, Fig. 7 and Fig. 10): 100 Hz three-axis
// angular velocity + linear acceleration, timestamped for exact
// synchronization with camera frames.
#pragma once

#include <vector>

#include "geom/vec.h"
#include "util/rng.h"
#include "video/trajectory.h"

namespace dive::video {

struct ImuSample {
  double timestamp = 0.0;   ///< seconds
  geom::Vec3 gyro;          ///< rad/s about camera x (pitch), y (yaw), z (roll)
  geom::Vec3 accel;         ///< m/s^2 in the camera frame (y-down => gravity +y)
};

struct ImuOptions {
  double gyro_noise = 0.002;   ///< rad/s std-dev
  double accel_noise = 0.05;   ///< m/s^2 std-dev
};

/// Samples the trajectory's angular velocity / acceleration at IMU rate.
std::vector<ImuSample> synthesize_imu(const EgoTrajectory& trajectory,
                                      const ImuOptions& options,
                                      util::Rng& rng);

/// Mean gyro reading over [t0, t1) — the ground-truth rotational speed for
/// a frame interval, matching how the paper integrates IMU between frames.
geom::Vec3 mean_gyro(const std::vector<ImuSample>& samples, double t0,
                     double t1);

}  // namespace dive::video
