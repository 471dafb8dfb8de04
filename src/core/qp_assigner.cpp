#include "core/qp_assigner.h"

#include <algorithm>
#include <cmath>

#include "geom/polygon.h"

namespace dive::core {

namespace {

/// delta = round(coefficient * foreground_area_fraction), clamped to
/// [kDeltaMin, kDeltaMax].
constexpr double kAdaptiveCoefficient = 80.0;
constexpr int kDeltaMin = 4;
constexpr int kDeltaMax = 26;

}  // namespace

std::vector<bool> QpAssigner::foreground_mask(const ForegroundResult& fg,
                                              int mb_cols, int mb_rows) {
  std::vector<bool> mask(static_cast<std::size_t>(mb_cols) * mb_rows, false);
  if (!fg.valid) return mask;
  const double mb = codec::kMacroblockSize;
  for (const auto& region : fg.regions) {
    if (region.hull.size() < 3) continue;
    const geom::Box b = region.bounds;
    const int c0 = std::max(0, static_cast<int>(b.x0 / mb));
    const int c1 = std::min(mb_cols - 1, static_cast<int>(b.x1 / mb));
    const int r0 = std::max(0, static_cast<int>(b.y0 / mb));
    const int r1 = std::min(mb_rows - 1, static_cast<int>(b.y1 / mb));
    for (int row = r0; row <= r1; ++row) {
      for (int col = c0; col <= c1; ++col) {
        const geom::Vec2 center{(col + 0.5) * mb, (row + 0.5) * mb};
        if (geom::point_in_polygon(center, region.hull)) {
          mask[static_cast<std::size_t>(row) * mb_cols + col] = true;
        }
      }
    }
  }
  return mask;
}

codec::QpOffsetMap QpAssigner::box_map(const edge::DetectionList& boxes,
                                       double pad_px, int background_delta,
                                       int mb_cols, int mb_rows) {
  codec::QpOffsetMap map(mb_cols, mb_rows,
                         static_cast<std::int8_t>(background_delta));
  const double mb = codec::kMacroblockSize;
  for (const auto& det : boxes) {
    const geom::Box roi{det.box.x0 - pad_px, det.box.y0 - pad_px,
                        det.box.x1 + pad_px, det.box.y1 + pad_px};
    const int c0 = std::max(0, static_cast<int>(roi.x0 / mb));
    const int c1 = std::min(mb_cols - 1, static_cast<int>(roi.x1 / mb));
    const int r0 = std::max(0, static_cast<int>(roi.y0 / mb));
    const int r1 = std::min(mb_rows - 1, static_cast<int>(roi.y1 / mb));
    for (int row = r0; row <= r1; ++row)
      for (int col = c0; col <= c1; ++col) map.at(col, row) = 0;
  }
  return map;
}

int QpAssigner::delta_from_mask(const ForegroundResult& fg,
                                const std::vector<bool>& mask) const {
  if (config_.fixed_delta >= 0) return config_.fixed_delta;
  if (!fg.valid || fg.regions.empty()) {
    // No foreground knowledge: compress uniformly but gently — encoding
    // everything as "background" at a large delta would risk the true
    // foreground.
    return kDeltaMin;
  }
  const std::size_t covered = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  const double fraction =
      mask.empty() ? 0.0
                   : static_cast<double>(covered) /
                         static_cast<double>(mask.size());
  const int delta =
      static_cast<int>(std::lround(kAdaptiveCoefficient * fraction));
  return std::clamp(delta, kDeltaMin, kDeltaMax);
}

int QpAssigner::background_delta(const ForegroundResult& fg, int mb_cols,
                                 int mb_rows) const {
  return delta_from_mask(fg, foreground_mask(fg, mb_cols, mb_rows));
}

codec::QpOffsetMap QpAssigner::build_map(const ForegroundResult& fg,
                                         int mb_cols, int mb_rows) const {
  const std::vector<bool> mask = foreground_mask(fg, mb_cols, mb_rows);
  const int delta = delta_from_mask(fg, mask);
  codec::QpOffsetMap map(mb_cols, mb_rows, static_cast<std::int8_t>(delta));
  for (int row = 0; row < mb_rows; ++row)
    for (int col = 0; col < mb_cols; ++col)
      if (mask[static_cast<std::size_t>(row) * mb_cols + col])
        map.at(col, row) = 0;
  return map;
}

}  // namespace dive::core
