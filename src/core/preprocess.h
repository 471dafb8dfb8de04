// DiVE preprocessing (Sec. III-B): ego-motion judgement from the non-zero
// motion-vector ratio, rotation estimation via R-sampling + RANSAC, and
// removal of the rotational component from every motion vector.
#pragma once

#include <vector>

#include "codec/types.h"
#include "core/motion_model.h"
#include "core/rotation_estimator.h"
#include "geom/pinhole_camera.h"

namespace dive::core {

struct PreprocessConfig {
  RotationEstimatorConfig rotation;
};

/// A corrected per-macroblock motion vector with its image geometry.
struct CorrectedMv {
  int col = 0;
  int row = 0;
  geom::Vec2 position;  ///< centered image coordinates of the MB center
  geom::Vec2 raw;       ///< codec motion vector
  geom::Vec2 corrected; ///< raw minus the rotational component
  bool nonzero = false; ///< raw MV was nonzero
};

struct PreprocessResult {
  double eta = 0.0;
  bool agent_moving = false;
  bool rotation_valid = false;
  Rotation rotation;              ///< estimated (dphi_x, dphi_y), rad/frame
  std::vector<CorrectedMv> mvs;   ///< one entry per macroblock
  int mb_cols = 0;
  int mb_rows = 0;
};

class Preprocessor {
 public:
  /// Ego-motion threshold on the non-zero MV ratio (Fig. 6: eta > 0.15).
  static constexpr double kEtaThreshold = 0.15;

  Preprocessor(PreprocessConfig config, std::uint64_t seed)
      : rotation_estimator_(config.rotation, seed) {}

  /// Full preprocessing of one frame's motion field.
  PreprocessResult run(const codec::MotionField& field,
                       const geom::PinholeCamera& camera);

 private:
  RotationEstimator rotation_estimator_;
};

}  // namespace dive::core
