// Ground estimation from corrected motion vectors (Sec. III-C1).
//
// Observation 2: after rotation removal, static points at the same world
// height share the same normalized MV magnitude |v| / (R * y). The ground
// is the lowest (and largest) surface, so its normalized magnitude is the
// smallest mode of the distribution. The estimator:
//   1. keeps MVs that point at the FOE (radial-consistency filter — the
//      paper's "filter out those random vectors that do not point to the
//      FOE");
//   2. histograms normalized magnitudes and applies the Triangle (Zack)
//      threshold;
//   3. declares macroblocks under the threshold "ground", wraps them in a
//      convex hull, and returns the non-ground blocks inside the hull as
//      the foreground seed set S^t.
#pragma once

#include <vector>

#include "core/preprocess.h"
#include "geom/pinhole_camera.h"
#include "geom/vec.h"

namespace dive::core {

struct GroundEstimatorConfig {
  geom::Vec2 foe{0.0, 0.0};  ///< centered coordinates
};

struct GroundEstimate {
  bool valid = false;
  double threshold = 0.0;            ///< normalized-magnitude cutoff
  std::vector<bool> ground_mask;     ///< per-MB, row-major
  std::vector<bool> in_hull_mask;    ///< per-MB: center inside ground hull
  std::vector<geom::Vec2> hull;      ///< ground convex hull, pixel coords
  std::vector<int> seed_indices;     ///< foreground seeds (MB index)
  int ground_count = 0;
};

class GroundEstimator {
 public:
  explicit GroundEstimator(GroundEstimatorConfig config = {})
      : config_(config) {}

  [[nodiscard]] const GroundEstimatorConfig& config() const { return config_; }

  [[nodiscard]] GroundEstimate estimate(const PreprocessResult& pre,
                                        const geom::PinholeCamera& camera) const;

 private:
  GroundEstimatorConfig config_;
};

}  // namespace dive::core
