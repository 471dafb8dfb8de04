// Mean-MV box propagation: shift each detection box by the mean motion
// vector of the macroblocks whose centers it contains. This is the
// primitive behind both the agent-side MOT fallback
// (core::OfflineTracker, Sec. III-E) and edge-side RoI gating
// (edge/gate.h propagating background boxes between full inferences) —
// one definition so the two stay bit-identical.
#pragma once

#include "codec/types.h"
#include "edge/detection.h"

namespace dive::edge {

struct BoxShiftOptions {
  /// Boxes whose clipped area falls below this fraction of their original
  /// area are dropped (they left the frame).
  double min_area_keep = 0.25;
  /// Confidence decay per propagated frame (propagation degrades with
  /// horizon). 1.0 keeps confidences untouched.
  double confidence_decay = 0.92;
};

/// Advances `previous` detections by one frame using the frame's motion
/// field. `width`/`height` clip the results. An empty field shifts by
/// zero (boxes stay put, decay still applies).
[[nodiscard]] DetectionList shift_by_mean_mv(const DetectionList& previous,
                                             const codec::MotionField& field,
                                             int width, int height,
                                             const BoxShiftOptions& options);

}  // namespace dive::edge
