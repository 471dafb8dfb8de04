// Chroma-signature object detector — the reproduction's stand-in for the
// edge DNN (see DESIGN.md substitution table).
//
// Scene objects are rendered with class-distinctive chroma: cars push the
// U plane up, pedestrians push the V plane up, while background materials
// stay near neutral. The detector thresholds the chroma planes, labels
// 4-connected components run by run in one row scan, and scores each blob
// by its mean chroma excess.
// Codec quantization erodes chroma contrast, so detection quality
// degrades smoothly (and monotonically) with compression — the property
// the paper's AP-vs-QP and AP-vs-bandwidth experiments rely on.
#pragma once

#include "edge/detection.h"
#include "video/frame.h"

namespace dive::edge {

struct DetectorConfig {
  int chroma_excess_threshold = 18;  ///< min (plane - 128) to fire
  int cross_suppression = 150;       ///< reject if the *other* plane exceeds this
  int min_area_chroma_px = 10;       ///< min blob size (chroma-res pixels)
  double confidence_scale = 26.0;    ///< excess that maps to confidence 1.0
};

class ChromaDetector {
 public:
  explicit ChromaDetector(DetectorConfig config = {}) : config_(config) {}

  [[nodiscard]] const DetectorConfig& config() const { return config_; }

  /// Detects cars and pedestrians; boxes are in luma pixel coordinates,
  /// sorted by descending confidence.
  [[nodiscard]] DetectionList detect(const video::Frame& frame) const;

 private:
  DetectorConfig config_;
};

}  // namespace dive::edge
