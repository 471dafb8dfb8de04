#include "core/rotation_estimator.h"

#include <algorithm>
#include <cmath>

#include "geom/least_squares.h"

namespace dive::core {

namespace {

/// Max tangential MV mismatch (pixels) for a RANSAC inlier.
constexpr double kInlierThresholdPx = 1.0;
/// Reject estimates whose consensus covers less than this fraction of
/// the sampled rows (no usable static structure in the sample).
constexpr double kMinInlierFraction = 0.2;
/// MVs shorter than this are skipped. 0: even a zero MV is a valid
/// measurement ("no apparent rotation at this block"), and near the FOE
/// the static background's MVs are legitimately tiny — dropping them
/// would leave mostly moving-object vectors in the sample.
constexpr double kMinMvMagnitude = 0.0;
/// MVs with a component at/above this are treated as saturated by the
/// codec's search window and discarded (true motion exceeded the range,
/// so the vector's value is arbitrary). Keep just under the encoder's
/// MotionSearchConfig::range.
constexpr double kSaturationLimitPx = 23.0;
/// Rows with |y| below this contribute almost nothing to the yaw
/// estimate (their Eq. (7) coefficient on dphi_y vanishes), so
/// R-sampling reserves half the sample for blocks with |y| above it.
/// Wide-short sensors (KITTI's 1242x375) are degenerate without this.
constexpr double kYDiversityPx = 10.0;

}  // namespace

std::optional<RotationEstimate> RotationEstimator::estimate(
    const codec::MotionField& field, const geom::PinholeCamera& camera) {
  if (field.empty()) return std::nullopt;
  const double f = camera.focal();

  // Collect candidate (position, mv) pairs with usable magnitude.
  struct Datum {
    geom::Vec2 p;   // centered position
    geom::Vec2 mv;
    double foe_dist;
  };
  std::vector<Datum> candidates;
  candidates.reserve(field.size());
  for (int row = 0; row < field.mb_rows; ++row) {
    for (int col = 0; col < field.mb_cols; ++col) {
      const codec::MotionVector mv = field.at(col, row);
      const geom::Vec2 v = mv.as_vec2();
      if (v.norm() < kMinMvMagnitude) continue;
      if (std::abs(v.x) >= kSaturationLimitPx ||
          std::abs(v.y) >= kSaturationLimitPx)
        continue;
      const geom::Vec2 p = camera.to_centered(field.mb_center(col, row));
      candidates.push_back({p, v, (p - config_.foe).norm()});
    }
  }
  if (candidates.size() < 3) return std::nullopt;

  // Sampling policy.
  std::vector<Datum> selected;
  const auto k = static_cast<std::size_t>(
      std::max(3, std::min<int>(config_.sample_count,
                                static_cast<int>(candidates.size()))));
  if (config_.policy == SamplingPolicy::kRSampling) {
    // Nearest-to-FOE selection, with half the quota reserved for rows
    // carrying vertical offset (they are the only ones that constrain
    // dphi_y on wide-aspect sensors).
    std::sort(candidates.begin(), candidates.end(),
              [](const Datum& a, const Datum& b) {
                return a.foe_dist < b.foe_dist;
              });
    std::vector<std::uint8_t> taken(candidates.size(), 0);
    std::size_t high_y_taken = 0;
    for (std::size_t i = 0;
         i < candidates.size() && high_y_taken < k / 2; ++i) {
      if (std::abs(candidates[i].p.y) >= kYDiversityPx) {
        taken[i] = 1;
        ++high_y_taken;
      }
    }
    std::size_t remaining = k - high_y_taken;
    for (std::size_t i = 0; i < candidates.size() && remaining > 0; ++i) {
      if (!taken[i]) {
        taken[i] = 1;
        --remaining;
      }
    }
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (taken[i]) selected.push_back(candidates[i]);
  } else {
    selected.reserve(k);
    // Sample without replacement via partial Fisher-Yates.
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(rng_.uniform_int(
          static_cast<int>(i), static_cast<int>(candidates.size()) - 1));
      std::swap(candidates[i], candidates[j]);
      selected.push_back(candidates[i]);
    }
  }

  // Build the Eq. (7) rows. Substituting Eq. (5) into the combined model
  // and eliminating the depth term gives
  //     y*vx - x*vy = -(x f) dphi_x - (y f) dphi_y ,
  // one row per motion vector. (The paper's Eq. (7) prints the right-hand
  // side with the opposite sign; the derivation from its own Eq. (6)
  // yields the negative form used here.)
  std::vector<geom::LinearRow2> rows;
  rows.reserve(selected.size());
  for (const auto& d : selected) {
    rows.push_back(
        {-d.p.x * f, -d.p.y * f, d.p.y * d.mv.x - d.p.x * d.mv.y});
  }

  geom::RansacOptions opts;
  opts.iterations = config_.ransac_iterations;
  opts.sample_size = 2;
  opts.min_inliers = std::max(
      3, static_cast<int>(kMinInlierFraction *
                          static_cast<double>(rows.size())));
  opts.inlier_threshold = kInlierThresholdPx;

  auto fit = [&rows](std::span<const std::size_t> idx)
      -> std::optional<geom::Vec2> {
    std::vector<geom::LinearRow2> subset;
    subset.reserve(idx.size());
    for (auto i : idx) subset.push_back(rows[i]);
    return geom::solve_least_squares_2(subset);
  };
  // Residual normalized by the point's FOE distance: the tangential MV
  // mismatch in pixels, comparable across the frame.
  auto error = [&rows, &selected](const geom::Vec2& model, std::size_t i) {
    const double denom = std::max(1.0, selected[i].foe_dist);
    return geom::residual(rows[i], model) / denom;
  };

  const auto result = geom::ransac<geom::Vec2>(rows.size(), opts, rng_, fit,
                                               error);
  if (!result) return std::nullopt;

  RotationEstimate est;
  est.rotation = {result->model.x, result->model.y};
  est.inliers = static_cast<int>(result->inliers.size());
  est.samples_used = static_cast<int>(rows.size());
  return est;
}

}  // namespace dive::core
