// Generic RANSAC (Fischler & Bolles, 1981) over an arbitrary model.
//
// DiVE uses RANSAC to solve the rotational-speed system of Eq. (7)
// robustly against noisy motion vectors selected by R-sampling
// (Sec. III-B3). The implementation is model-agnostic so tests can
// exercise it on simple line fits too.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "util/rng.h"

namespace dive::geom {

/// Datums per minimal sample: both models fit here (the rotation of
/// Eq. (7) and the tests' lines) have two parameters.
inline constexpr std::size_t kRansacSampleSize = 2;

struct RansacOptions {
  int iterations = 50;          ///< number of minimal-sample hypotheses
  double inlier_threshold = 1.0;///< max residual to count as inlier
  int min_inliers = 2;          ///< reject models with fewer inliers
};

template <typename Model>
struct RansacResult {
  Model model{};
  std::vector<std::size_t> inliers;  ///< indices of inlier datums
  double inlier_rms = 0.0;           ///< RMS residual over the inliers
};

/// Runs RANSAC over `n` datums.
///  * `fit(indices)`   -> optional<Model> from a subset of datum indices
///  * `error(model,i)` -> residual of datum i under the model
/// Returns the model with the most inliers (ties: lower inlier RMS),
/// refit on its full inlier set.
template <typename Model>
std::optional<RansacResult<Model>> ransac(
    std::size_t n, const RansacOptions& opts, util::Rng& rng,
    const std::function<std::optional<Model>(std::span<const std::size_t>)>& fit,
    const std::function<double(const Model&, std::size_t)>& error) {
  if (n < kRansacSampleSize) return std::nullopt;

  std::optional<RansacResult<Model>> best;
  std::vector<std::size_t> sample(kRansacSampleSize);

  for (int iter = 0; iter < opts.iterations; ++iter) {
    // Draw a minimal sample without replacement.
    for (auto& s : sample) {
      bool fresh = true;
      do {
        s = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(n) - 1));
        fresh = true;
        for (const auto& other : sample) {
          if (&other == &s) break;
          if (other == s) { fresh = false; break; }
        }
      } while (!fresh);
    }

    auto model = fit(sample);
    if (!model) continue;

    RansacResult<Model> cand;
    cand.model = *model;
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = error(*model, i);
      if (e <= opts.inlier_threshold) {
        cand.inliers.push_back(i);
        sq += e * e;
      }
    }
    if (cand.inliers.size() < static_cast<std::size_t>(opts.min_inliers))
      continue;
    cand.inlier_rms =
        std::sqrt(sq / static_cast<double>(cand.inliers.size()));

    const bool better =
        !best || cand.inliers.size() > best->inliers.size() ||
        (cand.inliers.size() == best->inliers.size() &&
         cand.inlier_rms < best->inlier_rms);
    if (better) best = std::move(cand);
  }

  if (best && !best->inliers.empty()) {
    // Two refit rounds with inlier re-selection (mini-IRLS): a refit can
    // both shed marginal outliers and adopt points the minimal-sample
    // hypothesis missed, which stabilizes the final model.
    for (int round = 0; round < 2; ++round) {
      auto refit = fit(best->inliers);
      if (!refit) break;
      RansacResult<Model> updated;
      updated.model = *refit;
      double sq = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double e = error(updated.model, i);
        if (e <= opts.inlier_threshold) {
          updated.inliers.push_back(i);
          sq += e * e;
        }
      }
      if (updated.inliers.size() < static_cast<std::size_t>(opts.min_inliers))
        break;
      updated.inlier_rms =
          std::sqrt(sq / static_cast<double>(updated.inliers.size()));
      const bool same = updated.inliers == best->inliers;
      *best = std::move(updated);
      if (same) break;
    }
  }
  return best;
}

}  // namespace dive::geom
