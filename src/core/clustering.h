// Region-growing foreground clustering and cluster merging (Sec. III-C2).
//
// Starting from the foreground seed macroblocks inside the ground hull, a
// BFS grows each cluster over 4-connected neighbors whose motion vector is
// similar both to the neighbor being expanded and to the cluster's running
// mean (the second test prevents over-growing). Clusters with similar
// mean-MV direction that are spatially adjacent are then merged to close
// the holes left by sparse motion vectors.
#pragma once

#include <vector>

#include "core/preprocess.h"
#include "geom/vec.h"

namespace dive::core {

struct ClusteringConfig {
  /// Max |mv_i - mv_j| between adjacent blocks, pixels.
  double pair_distance = 1.8;
  /// Max |mv_j - cluster_mean|, pixels.
  double mean_distance = 2.5;
  /// Drift-proof anchor: every member must stay within
  /// max(anchor_abs, anchor_rel * |seed_mv|) of the seed's MV. The pair
  /// and mean tests alone allow a cluster to creep up a building column
  /// where the MV magnitude grows gradually row by row.
  double anchor_abs = 2.0;
  double anchor_rel = 0.5;
  /// Merge condition: cosine between cluster mean directions.
  double merge_cos_min = 0.85;
  /// Clusters smaller than this many macroblocks are dropped as noise.
  int min_cluster_mbs = 2;
};

struct Cluster {
  std::vector<int> members;  ///< macroblock indices (row-major)
  geom::Vec2 mean_mv;
  int col_min = 0, col_max = 0, row_min = 0, row_max = 0;

  [[nodiscard]] int size() const { return static_cast<int>(members.size()); }
};

class ForegroundClusterer {
 public:
  explicit ForegroundClusterer(ClusteringConfig config = {})
      : config_(config) {}

  [[nodiscard]] const ClusteringConfig& config() const { return config_; }

  /// Grows clusters from `seeds` over the corrected motion field.
  /// `ground_mask` blocks are confirmed background and never joined;
  /// blocks outside `in_hull_mask` additionally require kMinOutsideMv
  /// of motion. Empty masks disable the respective constraint.
  [[nodiscard]] std::vector<Cluster> grow(
      const PreprocessResult& pre, const std::vector<int>& seeds,
      const std::vector<bool>& ground_mask = {},
      const std::vector<bool>& in_hull_mask = {}) const;

  /// Iteratively merges direction-compatible adjacent clusters until a
  /// fixed point.
  [[nodiscard]] std::vector<Cluster> merge(std::vector<Cluster> clusters) const;

 private:
  [[nodiscard]] bool mergeable(const Cluster& a, const Cluster& b) const;

  ClusteringConfig config_;
};

}  // namespace dive::core
