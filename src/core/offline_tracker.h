// Motion-vector-based Offline Tracking (MOT, Sec. III-E): when the uplink
// is out, shift each previously detected bounding box by the mean motion
// vector of the macroblocks inside it. Also used by the O3/EAAR baselines
// for their non-key frames (the paper applies the same tracker to all
// three for fairness).
#pragma once

#include "codec/types.h"
#include "edge/detection.h"

namespace dive::core {

class OfflineTracker {
 public:
  /// Confidence decay per tracked frame (tracking degrades with horizon).
  static constexpr double kConfidenceDecay = 0.92;

  /// Advances `previous` detections by one frame using the frame's motion
  /// field. `width`/`height` clip the results.
  [[nodiscard]] edge::DetectionList track(const edge::DetectionList& previous,
                                          const codec::MotionField& field,
                                          int width, int height) const;
};

}  // namespace dive::core
