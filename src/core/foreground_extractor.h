// Foreground Extraction (FE, Sec. III-C): ground estimation + region
// growing + cluster merge + per-object convex hulls, with the paper's
// fallback of reusing the latest foreground when the agent is stopped (or
// no motion field exists, e.g. at intra frames).
#pragma once

#include <vector>

#include "core/clustering.h"
#include "core/ground_estimator.h"
#include "core/preprocess.h"
#include "geom/box.h"

namespace dive::core {

struct ForegroundRegion {
  std::vector<geom::Vec2> hull;  ///< convex contour, pixel coordinates
  geom::Box bounds;              ///< hull bounding box
  geom::Vec2 mean_mv;
  int macroblocks = 0;
  /// 0 = extracted this frame; >0 = carried from an earlier frame,
  /// shifted along its mean motion vector.
  int age = 0;
};

struct ForegroundResult {
  std::vector<ForegroundRegion> regions;
  bool from_fallback = false;  ///< reused the previous frame's foreground
  bool valid = false;          ///< any foreground knowledge at all
  double ground_threshold = 0.0;
  int seed_count = 0;

  /// Fraction of the frame area covered by foreground bounding hulls
  /// (drives the adaptive delta of the QP assigner).
  [[nodiscard]] double area_fraction(int width, int height) const;
};

struct ForegroundExtractorConfig {
  GroundEstimatorConfig ground;
  ClusteringConfig clustering;
  /// Hull vertices are padded outward by this many pixels so that object
  /// borders (where chroma matters most) stay inside the foreground.
  double hull_padding_px = 8.0;
  /// Regions extracted in the last N frames are carried forward (shifted
  /// by their mean MV) and unioned with the current extraction. Motion
  /// vectors are sparse and coarse, so single-frame extraction misses
  /// objects intermittently; short temporal carry smooths that out.
  int temporal_carry_frames = 2;
};

class ForegroundExtractor {
 public:
  explicit ForegroundExtractor(ForegroundExtractorConfig config = {})
      : config_(config), ground_(config.ground), clusterer_(config.clustering) {}

  [[nodiscard]] const ForegroundExtractorConfig& config() const {
    return config_;
  }

  /// Extracts the foreground for one preprocessed frame. When the agent
  /// is stopped or preprocessing produced nothing usable, returns the
  /// previous result flagged `from_fallback`.
  ForegroundResult extract(const PreprocessResult& pre,
                           const geom::PinholeCamera& camera);

  /// Last successfully extracted foreground (fallback source).
  [[nodiscard]] const ForegroundResult& last() const { return last_; }

  void reset() {
    last_ = {};
    carry_.clear();
  }

 private:
  /// Age-0 geometry of a recently extracted region. Carried copies are
  /// always rebuilt from this original (hull + age * mean_mv) instead of
  /// re-shifting the previous frame's carried copy, so motion and
  /// clipping errors cannot compound across the carry window.
  struct CarrySource {
    std::vector<geom::Vec2> hull;
    geom::Vec2 mean_mv;
    int macroblocks = 0;
    int age = 0;  ///< frames since extraction
  };

  ForegroundExtractorConfig config_;
  GroundEstimator ground_;
  ForegroundClusterer clusterer_;
  ForegroundResult last_;
  std::vector<CarrySource> carry_;
};

}  // namespace dive::core
