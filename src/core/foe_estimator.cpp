#include "core/foe_estimator.h"

#include <cmath>

#include "geom/ransac.h"

namespace dive::core {

namespace {

/// MVs shorter than this carry too little direction to constrain the
/// intersection point.
constexpr double kMinMvMagnitude = 1.5;
/// Max perpendicular point-to-line distance (pixels) for an inlier.
constexpr double kInlierThresholdPx = 6.0;
constexpr double kMinInlierFraction = 0.4;
/// Exponential smoothing factor of the cross-frame calibration.
constexpr double kCalibrationAlpha = 0.15;

/// One motion-vector line: point p, unit direction d.
struct MvLine {
  geom::Vec2 p;
  geom::Vec2 d;
};

/// Perpendicular distance from `x` to the line.
double line_distance(const MvLine& line, geom::Vec2 x) {
  const geom::Vec2 r = x - line.p;
  return std::abs(r.cross(line.d));
}

/// Least-squares intersection of a set of lines: minimizes the sum of
/// squared perpendicular distances. Normal equations of
///   sum (I - d d^T) (x - p) = 0.
std::optional<geom::Vec2> intersect_lines(const std::vector<MvLine>& lines,
                                          std::span<const std::size_t> idx) {
  double a11 = 0, a12 = 0, a22 = 0, b1 = 0, b2 = 0;
  for (const std::size_t i : idx) {
    const geom::Vec2 d = lines[i].d;
    const geom::Vec2 p = lines[i].p;
    // M = I - d d^T (projector onto the line normal).
    const double m11 = 1.0 - d.x * d.x;
    const double m12 = -d.x * d.y;
    const double m22 = 1.0 - d.y * d.y;
    a11 += m11;
    a12 += m12;
    a22 += m22;
    b1 += m11 * p.x + m12 * p.y;
    b2 += m12 * p.x + m22 * p.y;
  }
  const double det = a11 * a22 - a12 * a12;
  if (std::abs(det) < 1e-9) return std::nullopt;  // all lines parallel
  return geom::Vec2{(b1 * a22 - b2 * a12) / det, (b2 * a11 - b1 * a12) / det};
}

}  // namespace

std::optional<FoeEstimate> FoeEstimator::estimate(
    const codec::MotionField& field, const geom::PinholeCamera& camera) {
  if (field.empty()) return std::nullopt;

  std::vector<MvLine> lines;
  lines.reserve(field.size());
  for (int row = 0; row < field.mb_rows; ++row) {
    for (int col = 0; col < field.mb_cols; ++col) {
      const geom::Vec2 v = field.at(col, row).as_vec2();
      if (v.norm() < kMinMvMagnitude) continue;
      lines.push_back(
          {camera.to_centered(field.mb_center(col, row)), v.normalized()});
    }
  }
  if (lines.size() < 8) return std::nullopt;

  geom::RansacOptions opts;
  opts.iterations = config_.ransac_iterations;
  opts.sample_size = 2;
  opts.inlier_threshold = kInlierThresholdPx;
  opts.min_inliers = std::max(
      4, static_cast<int>(kMinInlierFraction *
                          static_cast<double>(lines.size())));

  auto fit = [&lines](std::span<const std::size_t> idx) {
    return intersect_lines(lines, idx);
  };
  auto error = [&lines](const geom::Vec2& model, std::size_t i) {
    return line_distance(lines[i], model);
  };
  const auto result =
      geom::ransac<geom::Vec2>(lines.size(), opts, rng_, fit, error);
  if (!result) return std::nullopt;

  FoeEstimate est;
  est.foe = result->model;
  est.inliers = static_cast<int>(result->inliers.size());
  est.candidates = static_cast<int>(lines.size());
  return est;
}

std::optional<FoeEstimate> FoeEstimator::update_calibration(
    const codec::MotionField& field, const geom::PinholeCamera& camera) {
  auto est = estimate(field, camera);
  if (!est) return est;
  // Only trust frames with a strong expansion consensus: during turns the
  // best "intersection" is an artifact.
  if (est->inliers < est->candidates / 2) return std::nullopt;
  if (!calibrated_) {
    calibrated_ = est->foe;
  } else {
    *calibrated_ = *calibrated_ * (1.0 - kCalibrationAlpha) +
                   est->foe * kCalibrationAlpha;
  }
  ++calibration_frames_;
  return est;
}

}  // namespace dive::core
