// Focus-of-expansion estimation and calibration.
//
// Observation 1 (Sec. II-C): when the agent translates forward, the
// motion vectors of static points all point away from a single image
// point — the FOE, which coincides with the vanishing point. R-sampling
// and the normalized-magnitude feature both take the FOE as given,
// "calibrated when the agent moves forward". This component performs that
// calibration: per frame it finds the point minimizing the perpendicular
// distance to all motion-vector lines (robustly, via RANSAC), and across
// frames it accumulates a running calibration.
//
// For a vehicle whose camera is aligned with the direction of travel the
// calibrated FOE sits at the principal point, which is why the rest of
// the library defaults to (0, 0) in centered coordinates; this estimator
// verifies that assumption and supports mounted-at-an-angle cameras.
#pragma once

#include <optional>
#include <vector>

#include "codec/types.h"
#include "geom/pinhole_camera.h"
#include "util/rng.h"

namespace dive::core {

struct FoeEstimatorConfig {
  int ransac_iterations = 60;
};

struct FoeEstimate {
  geom::Vec2 foe;  ///< centered image coordinates
  int inliers = 0;
  int candidates = 0;
};

class FoeEstimator {
 public:
  FoeEstimator(FoeEstimatorConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  [[nodiscard]] const FoeEstimatorConfig& config() const { return config_; }

  /// Single-frame estimate from a (rotation-corrected) motion field.
  /// Empty when too few usable vectors or no consensus exists (e.g. the
  /// agent is rotating or stopped).
  std::optional<FoeEstimate> estimate(const codec::MotionField& field,
                                      const geom::PinholeCamera& camera);

  /// Feeds a frame into the running calibration; returns the per-frame
  /// estimate when one was made.
  std::optional<FoeEstimate> update_calibration(
      const codec::MotionField& field, const geom::PinholeCamera& camera);

  /// Smoothed cross-frame calibration; nullopt until the first accepted
  /// frame.
  [[nodiscard]] std::optional<geom::Vec2> calibrated() const {
    return calibrated_;
  }
  [[nodiscard]] int calibration_frames() const { return calibration_frames_; }

  void reset() {
    calibrated_.reset();
    calibration_frames_ = 0;
  }

 private:
  FoeEstimatorConfig config_;
  util::Rng rng_;
  std::optional<geom::Vec2> calibrated_;
  int calibration_frames_ = 0;
};

}  // namespace dive::core
