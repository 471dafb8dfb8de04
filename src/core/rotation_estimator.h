// Rotational-component estimation from motion vectors (Sec. III-B3).
//
// For a forward-translating, pitch/yaw-rotating agent, eliminating the
// unknown depth from the combined MV model (Eq. 6) yields one linear
// equation per motion vector in the two rotational speeds (Eq. 7):
//     (x f) dphi_x + (y f) dphi_y = y*vx - x*vy .
// The estimator picks the k motion vectors closest to the FOE
// ("R-sampling": those MVs have the smallest translational component and
// are the most rotation-sensitive) and solves the over-determined system
// with RANSAC. The camera looks along the direction of travel, so the FOE
// is the principal point: the origin of centered coordinates.
#pragma once

#include <optional>
#include <vector>

#include "codec/types.h"
#include "core/motion_model.h"
#include "geom/pinhole_camera.h"
#include "geom/ransac.h"
#include "util/rng.h"

namespace dive::core {

enum class SamplingPolicy {
  kRSampling,  ///< k MVs nearest the FOE (the paper's method)
  kRandom,     ///< k uniformly random MVs (the Fig. 7 baseline)
};

struct RotationEstimatorConfig {
  SamplingPolicy policy = SamplingPolicy::kRSampling;
  int sample_count = 70;  ///< k; the paper settles on 70 (Fig. 10)
  /// RANSAC iterations; the residual is the tangential MV mismatch in
  /// pixels.
  int ransac_iterations = 80;
};

struct RotationEstimate {
  Rotation rotation;   ///< radians per frame interval
  int inliers = 0;
  int samples_used = 0;
};

class RotationEstimator {
 public:
  RotationEstimator(RotationEstimatorConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  /// Estimates (dphi_x, dphi_y) from the frame's motion field. Returns
  /// nullopt when fewer than 3 usable vectors exist or RANSAC finds no
  /// consensus.
  std::optional<RotationEstimate> estimate(const codec::MotionField& field,
                                           const geom::PinholeCamera& camera);

 private:
  RotationEstimatorConfig config_;
  util::Rng rng_;
};

}  // namespace dive::core
