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

  /// The background delta for a given foreground extraction result; the
  /// adaptive rule uses the *union* area of the extracted foreground.
  [[nodiscard]] int background_delta(const ForegroundResult& fg, int mb_cols,
                                     int mb_rows) const;

  /// Builds the per-macroblock QP offset map for a frame of
  /// `mb_cols` x `mb_rows` macroblocks.
  [[nodiscard]] codec::QpOffsetMap build_map(const ForegroundResult& fg,
                                             int mb_cols, int mb_rows) const;

 private:
  [[nodiscard]] int delta_from_mask(const ForegroundResult& fg,
                                    const std::vector<bool>& mask) const;

  QpAssignerConfig config_;
};

}  // namespace dive::core
