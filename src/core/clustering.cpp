#include "core/clustering.h"

#include <algorithm>
#include <deque>

namespace dive::core {

namespace {

/// Max |mv_i - mv_j| between adjacent blocks, pixels.
constexpr double kPairDistance = 1.8;
/// Max |mv_j - cluster_mean|, pixels.
constexpr double kMeanDistance = 2.5;
/// Drift-proof anchor: every member must stay within
/// max(kAnchorAbs, kAnchorRel * |seed_mv|) of the seed's MV. The pair
/// and mean tests alone allow a cluster to creep up a building column
/// where the MV magnitude grows gradually row by row.
constexpr double kAnchorAbs = 2.0;
constexpr double kAnchorRel = 0.5;
/// Clusters smaller than this many macroblocks are dropped as noise.
constexpr int kMinClusterMbs = 2;
/// Blocks outside the ground hull may only join a cluster when their MV
/// magnitude is at least this (real motion evidence). Without it,
/// clusters seeded near the horizon leak through the far field, where
/// every static block's MV is mutually similar, and swallow the frame.
constexpr double kMinOutsideMv = 1.0;
/// Merge condition: max ratio between cluster mean magnitudes.
constexpr double kMergeMagnitudeRatio = 2.2;
/// Merge condition: clusters' MB bounding boxes must be within this
/// many macroblocks of each other.
constexpr int kMergeAdjacencyMb = 2;

}  // namespace

std::vector<Cluster> ForegroundClusterer::grow(
    const PreprocessResult& pre, const std::vector<int>& seeds,
    const std::vector<bool>& ground_mask,
    const std::vector<bool>& in_hull_mask) const {
  std::vector<Cluster> clusters;
  const int cols = pre.mb_cols;
  const int rows = pre.mb_rows;
  if (cols == 0 || rows == 0) return clusters;
  std::vector<int> assignment(pre.mvs.size(), -1);

  auto joinable = [&](std::size_t idx) {
    if (!ground_mask.empty() && ground_mask[idx]) return false;
    if (!in_hull_mask.empty() && !in_hull_mask[idx] &&
        pre.mvs[idx].corrected.norm() < kMinOutsideMv)
      return false;
    return true;
  };

  for (int seed : seeds) {
    if (seed < 0 || static_cast<std::size_t>(seed) >= pre.mvs.size()) continue;
    if (assignment[static_cast<std::size_t>(seed)] != -1) continue;

    Cluster cluster;
    const int cluster_id = static_cast<int>(clusters.size());
    const geom::Vec2 anchor = pre.mvs[static_cast<std::size_t>(seed)].corrected;
    const double anchor_bound =
        std::max(kAnchorAbs, kAnchorRel * anchor.norm());
    geom::Vec2 sum = anchor;
    cluster.members.push_back(seed);
    assignment[static_cast<std::size_t>(seed)] = cluster_id;
    cluster.mean_mv = sum;
    cluster.col_min = cluster.col_max = seed % cols;
    cluster.row_min = cluster.row_max = seed / cols;

    std::deque<int> frontier{seed};
    while (!frontier.empty()) {
      const int cur = frontier.front();
      frontier.pop_front();
      const geom::Vec2 cur_mv = pre.mvs[static_cast<std::size_t>(cur)].corrected;
      const int cc = cur % cols;
      const int cr = cur / cols;
      const int neighbors[4] = {cur - 1, cur + 1, cur - cols, cur + cols};
      const bool valid[4] = {cc > 0, cc < cols - 1, cr > 0, cr < rows - 1};
      for (int n = 0; n < 4; ++n) {
        if (!valid[n]) continue;
        const int nb = neighbors[n];
        if (assignment[static_cast<std::size_t>(nb)] != -1) continue;
        if (!joinable(static_cast<std::size_t>(nb))) continue;
        const geom::Vec2 nb_mv = pre.mvs[static_cast<std::size_t>(nb)].corrected;
        // Similar to the expanding block AND to the cluster mean
        // (the anti-over-growth condition of Sec. III-C2), AND within the
        // drift-proof bound of the seed.
        if ((nb_mv - cur_mv).norm() > kPairDistance) continue;
        if ((nb_mv - cluster.mean_mv).norm() > kMeanDistance) continue;
        if ((nb_mv - anchor).norm() > anchor_bound) continue;

        assignment[static_cast<std::size_t>(nb)] = cluster_id;
        cluster.members.push_back(nb);
        sum += nb_mv;
        cluster.mean_mv = sum / static_cast<double>(cluster.members.size());
        cluster.col_min = std::min(cluster.col_min, nb % cols);
        cluster.col_max = std::max(cluster.col_max, nb % cols);
        cluster.row_min = std::min(cluster.row_min, nb / cols);
        cluster.row_max = std::max(cluster.row_max, nb / cols);
        frontier.push_back(nb);
      }
    }
    if (cluster.size() >= kMinClusterMbs) {
      clusters.push_back(std::move(cluster));
    }
  }
  return clusters;
}

bool ForegroundClusterer::mergeable(const Cluster& a, const Cluster& b) const {
  // Spatial adjacency of the MB bounding boxes.
  constexpr int gap = kMergeAdjacencyMb;
  const bool near =
      a.col_min <= b.col_max + gap && b.col_min <= a.col_max + gap &&
      a.row_min <= b.row_max + gap && b.row_min <= a.row_max + gap;
  if (!near) return false;

  const double na = a.mean_mv.norm();
  const double nb = b.mean_mv.norm();
  if (na < 1e-9 || nb < 1e-9) return true;  // degenerate means: spatial only
  const double cosine = a.mean_mv.dot(b.mean_mv) / (na * nb);
  if (cosine < config_.merge_cos_min) return false;
  const double ratio = na > nb ? na / nb : nb / na;
  return ratio <= kMergeMagnitudeRatio;
}

std::vector<Cluster> ForegroundClusterer::merge(
    std::vector<Cluster> clusters) const {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < clusters.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < clusters.size() && !changed; ++j) {
        if (!mergeable(clusters[i], clusters[j])) continue;
        Cluster& a = clusters[i];
        Cluster& b = clusters[j];
        const double wa = a.size();
        const double wb = b.size();
        a.mean_mv = (a.mean_mv * wa + b.mean_mv * wb) / (wa + wb);
        a.members.insert(a.members.end(), b.members.begin(), b.members.end());
        a.col_min = std::min(a.col_min, b.col_min);
        a.col_max = std::max(a.col_max, b.col_max);
        a.row_min = std::min(a.row_min, b.row_min);
        a.row_max = std::max(a.row_max, b.row_max);
        clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(j));
        changed = true;
      }
    }
  }
  return clusters;
}

}  // namespace dive::core
