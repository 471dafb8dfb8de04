#include "core/ground_estimator.h"

#include <algorithm>
#include <cmath>

#include "codec/types.h"
#include "geom/convex_hull.h"
#include "geom/polygon.h"
#include "geom/triangle_threshold.h"
#include "util/histogram.h"

namespace dive::core {

namespace {

/// Min cosine between an MV and the radial direction from the FOE.
constexpr double kRadialCosMin = 0.9;
/// MVs shorter than this are unusable.
constexpr double kMinMvMagnitude = 1.0;
/// Only points below the FOE row qualify.
constexpr double kMinY = 4.0;
constexpr int kHistogramBins = 48;
/// Histogram upper range as a multiple of the median normalized
/// magnitude (robust to outliers).
constexpr double kHistogramRangeMedians = 4.0;

}  // namespace

GroundEstimate GroundEstimator::estimate(
    const PreprocessResult& pre, const geom::PinholeCamera& camera) const {
  GroundEstimate out;
  const std::size_t mb_count = pre.mvs.size();
  out.ground_mask.assign(mb_count, false);
  out.in_hull_mask.assign(mb_count, false);
  if (mb_count == 0) return out;

  // Usable candidates: long enough, below the horizon, pointing at the FOE.
  struct Candidate {
    std::size_t index;
    double norm_mag;
  };
  std::vector<Candidate> candidates;
  std::vector<double> mags;
  for (std::size_t i = 0; i < mb_count; ++i) {
    const CorrectedMv& m = pre.mvs[i];
    const geom::Vec2 v = m.corrected;
    if (v.norm() < kMinMvMagnitude) continue;
    if (m.position.y < kMinY) continue;
    const geom::Vec2 radial = m.position.normalized();
    const double cosine = v.normalized().dot(radial);
    if (cosine < kRadialCosMin) continue;  // noisy / moving object
    const double nm = normalized_magnitude(m.position, v);
    if (nm <= 0.0) continue;
    candidates.push_back({i, nm});
    mags.push_back(nm);
  }
  if (candidates.size() < 8) return out;

  // Triangle threshold over the normalized-magnitude histogram. Range is
  // anchored at a robust location estimate so foreground outliers do not
  // flatten the ground mode.
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(mags.size() / 2),
                   mags.end());
  const double median = mags[mags.size() / 2];
  const double hi = std::max(median * kHistogramRangeMedians, 1e-9);
  util::Histogram hist(0.0, hi, std::size_t{kHistogramBins});
  for (const auto& c : candidates) hist.add(c.norm_mag);
  const auto tri = geom::triangle_threshold(hist);
  out.threshold = tri.threshold;

  // Ground macroblocks: normalized magnitude below the threshold (with a
  // relative epsilon — values exactly on a bin edge must classify as
  // ground, not float-round their way out).
  std::vector<geom::Vec2> ground_points;
  const double cutoff = out.threshold * (1.0 + 1e-9);
  for (const auto& c : candidates) {
    if (c.norm_mag <= cutoff) {
      out.ground_mask[c.index] = true;
      ++out.ground_count;
      // Use the macroblock's pixel center for the hull.
      const CorrectedMv& m = pre.mvs[c.index];
      ground_points.push_back(camera.to_pixel(m.position));
    }
  }
  if (ground_points.size() < 3) return out;

  out.hull = geom::convex_hull(ground_points);
  if (out.hull.size() < 3) return out;

  // Morphological hole fill: an isolated non-ground block surrounded by
  // ground (3+ of its 4 neighbors) is a noisy MV on the road, not an
  // object seed.
  const int cols = pre.mb_cols;
  const int rows = pre.mb_rows;
  std::vector<bool> filled = out.ground_mask;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * cols + c;
      if (out.ground_mask[i]) continue;
      int ground_neighbors = 0;
      if (c > 0 && out.ground_mask[i - 1]) ++ground_neighbors;
      if (c < cols - 1 && out.ground_mask[i + 1]) ++ground_neighbors;
      if (r > 0 && out.ground_mask[i - static_cast<std::size_t>(cols)])
        ++ground_neighbors;
      if (r < rows - 1 && out.ground_mask[i + static_cast<std::size_t>(cols)])
        ++ground_neighbors;
      if (ground_neighbors >= 3) filled[i] = true;
    }
  }
  out.ground_mask = std::move(filled);

  // Hull membership for every macroblock; foreground seeds are the
  // non-ground macroblocks inside the hull.
  for (std::size_t i = 0; i < mb_count; ++i) {
    const geom::Vec2 pixel = camera.to_pixel(pre.mvs[i].position);
    if (geom::point_in_polygon(pixel, out.hull)) {
      out.in_hull_mask[i] = true;
      if (!out.ground_mask[i]) out.seed_indices.push_back(static_cast<int>(i));
    }
  }
  out.valid = true;
  return out;
}

}  // namespace dive::core
