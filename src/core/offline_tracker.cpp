#include "core/offline_tracker.h"

#include "edge/box_shift.h"

namespace dive::core {

namespace {

/// Boxes whose clipped area falls below this fraction of their original
/// area are dropped (they left the frame).
constexpr double kMinAreaKeep = 0.25;

}  // namespace

edge::DetectionList OfflineTracker::track(const edge::DetectionList& previous,
                                          const codec::MotionField& field,
                                          int width, int height) const {
  return edge::shift_by_mean_mv(
      previous, field, width, height,
      {.min_area_keep = kMinAreaKeep, .confidence_decay = kConfidenceDecay});
}

}  // namespace dive::core
