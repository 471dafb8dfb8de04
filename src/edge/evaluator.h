// Average-Precision evaluation (the paper's accuracy metric, Sec. IV-A).
//
// Protocol follows the paper: detections produced on *raw* frames at the
// edge server serve as ground truth; a scheme's detections on its
// (compressed / tracked) frames are scored against them with greedy
// IoU >= 0.5 matching, and AP is the area under the interpolated
// precision-recall curve. mAP averages over the car and pedestrian
// classes.
#pragma once

#include <array>
#include <vector>

#include "edge/detection.h"

namespace dive::edge {

class ApEvaluator {
 public:
  /// Scores one frame: `detections` against ground truth `truths`
  /// (both may contain both classes; matching is per class).
  void add_frame(const DetectionList& detections, const DetectionList& truths);

  /// AP of one class over everything added so far (0 when the class never
  /// appeared in the ground truth).
  [[nodiscard]] double ap(video::ObjectClass cls) const;

  /// Mean AP over car + pedestrian.
  [[nodiscard]] double map() const;

  [[nodiscard]] int ground_truth_count(video::ObjectClass cls) const;
  [[nodiscard]] int detection_count(video::ObjectClass cls) const;
  [[nodiscard]] int frames() const { return frames_; }

  void reset();

 private:
  struct ClassState {
    std::vector<std::pair<double, bool>> scored;  ///< (confidence, is_tp)
    int gt_total = 0;
  };

  [[nodiscard]] const ClassState& state(video::ObjectClass cls) const {
    return states_[static_cast<std::size_t>(cls)];
  }
  ClassState& state(video::ObjectClass cls) {
    return states_[static_cast<std::size_t>(cls)];
  }

  std::array<ClassState, video::kNumDetectableClasses> states_;
  int frames_ = 0;
};

/// AP of a single scored list (exposed for tests): `scored` is
/// (confidence, is_tp) pairs, `gt_total` the number of ground-truth boxes.
double average_precision(std::vector<std::pair<double, bool>> scored,
                         int gt_total);

}  // namespace dive::edge
