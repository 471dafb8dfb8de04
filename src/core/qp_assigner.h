// Optimal QP assignment (Sec. III-D2): foreground macroblocks get QP
// offset 0; background macroblocks get +delta. The paper's adaptive delta
// is proportional to the extracted foreground size — a larger foreground
// is more likely to already cover the true objects, so the background can
// be compressed harder.
#pragma once

#include <vector>

#include "codec/types.h"
#include "core/foreground_extractor.h"
#include "edge/detection.h"

namespace dive::core {

struct QpAssignerConfig {
  /// When >= 0, overrides the adaptive rule with a fixed delta
  /// (the Fig. 11 ablation: delta in {5, 15, 25}).
  int fixed_delta = -1;
};

/// One frame's QP assignment: the offset map and the delta its
/// background macroblocks carry.
struct QpAssignment {
  codec::QpOffsetMap map;
  int background_delta = 0;
};

class QpAssigner {
 public:
  explicit QpAssigner(QpAssignerConfig config = {}) : config_(config) {}

  /// Rasterizes the foreground hulls onto the macroblock grid
  /// (true = foreground).
  [[nodiscard]] static std::vector<bool> foreground_mask(
      const ForegroundResult& fg, int mb_cols, int mb_rows);

  /// Offset map of the box-driven baselines (DDS feedback regions, EAAR
  /// cached detections): `background_delta` everywhere except the
  /// macroblocks under each box inflated by `pad_px`, which get 0.
  [[nodiscard]] static codec::QpOffsetMap box_map(
      const edge::DetectionList& boxes, double pad_px, int background_delta,
      int mb_cols, int mb_rows);

  /// Per-macroblock QP offsets of a frame of `mb_cols` x `mb_rows`
  /// macroblocks: 0 on the foreground hulls' macroblocks, the background
  /// delta elsewhere. The adaptive delta follows the *union* area of the
  /// extracted foreground, so one rasterization of the hulls yields both.
  [[nodiscard]] QpAssignment assign(const ForegroundResult& fg, int mb_cols,
                                    int mb_rows) const;

 private:
  QpAssignerConfig config_;
};

}  // namespace dive::core
