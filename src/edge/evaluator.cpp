#include "edge/evaluator.h"

#include <algorithm>

namespace dive::edge {

namespace {

/// A detection is a true positive when it overlaps an unmatched
/// same-class ground-truth box by at least this IoU.
constexpr double kIouThreshold = 0.5;

}  // namespace

void ApEvaluator::add_frame(const DetectionList& detections,
                            const DetectionList& truths) {
  ++frames_;
  for (int c = 0; c < video::kNumDetectableClasses; ++c) {
    const auto cls = static_cast<video::ObjectClass>(c);
    ClassState& st = state(cls);

    std::vector<const Detection*> gt;
    for (const auto& t : truths)
      if (t.cls == cls) gt.push_back(&t);
    st.gt_total += static_cast<int>(gt.size());

    std::vector<const Detection*> dets;
    for (const auto& d : detections)
      if (d.cls == cls) dets.push_back(&d);
    std::sort(dets.begin(), dets.end(),
              [](const Detection* a, const Detection* b) {
                return a->confidence > b->confidence;
              });

    std::vector<bool> matched(gt.size(), false);
    for (const Detection* d : dets) {
      double best_iou = 0.0;
      std::size_t best_idx = gt.size();
      for (std::size_t g = 0; g < gt.size(); ++g) {
        if (matched[g]) continue;
        const double i = geom::iou(d->box, gt[g]->box);
        if (i > best_iou) {
          best_iou = i;
          best_idx = g;
        }
      }
      const bool tp =
          best_idx < gt.size() && best_iou >= kIouThreshold;
      if (tp) matched[best_idx] = true;
      st.scored.emplace_back(d->confidence, tp);
    }
  }
}

double average_precision(std::vector<std::pair<double, bool>> scored,
                         int gt_total) {
  if (gt_total <= 0) return 0.0;
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // Precision/recall points, then the interpolated (monotone envelope)
  // area — VOC "all points" AP.
  std::vector<double> precision;
  std::vector<double> recall;
  precision.reserve(scored.size());
  recall.reserve(scored.size());
  int tp = 0;
  int fp = 0;
  for (const auto& [conf, is_tp] : scored) {
    if (is_tp) ++tp; else ++fp;
    precision.push_back(static_cast<double>(tp) / (tp + fp));
    recall.push_back(static_cast<double>(tp) / gt_total);
  }
  // Monotone non-increasing precision envelope from the right.
  for (std::size_t i = precision.size(); i-- > 1;) {
    precision[i - 1] = std::max(precision[i - 1], precision[i]);
  }
  double ap = 0.0;
  double prev_recall = 0.0;
  for (std::size_t i = 0; i < precision.size(); ++i) {
    ap += (recall[i] - prev_recall) * precision[i];
    prev_recall = recall[i];
  }
  return ap;
}

double ApEvaluator::ap(video::ObjectClass cls) const {
  const ClassState& st = state(cls);
  return average_precision(st.scored, st.gt_total);
}

double ApEvaluator::map() const {
  // Average over classes that actually appear in the ground truth.
  double acc = 0.0;
  int n = 0;
  for (int c = 0; c < video::kNumDetectableClasses; ++c) {
    const auto cls = static_cast<video::ObjectClass>(c);
    if (state(cls).gt_total > 0) {
      acc += ap(cls);
      ++n;
    }
  }
  return n > 0 ? acc / n : 0.0;
}

int ApEvaluator::ground_truth_count(video::ObjectClass cls) const {
  return state(cls).gt_total;
}

int ApEvaluator::detection_count(video::ObjectClass cls) const {
  return static_cast<int>(state(cls).scored.size());
}

void ApEvaluator::reset() {
  for (auto& st : states_) {
    st.scored.clear();
    st.gt_total = 0;
  }
  frames_ = 0;
}

}  // namespace dive::edge
