#include "core/foreground_extractor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "codec/types.h"
#include "geom/convex_hull.h"

namespace dive::core {

namespace {

/// A carried region is dropped once a fresh region overlaps it.
constexpr double kCarrySuppressIou = 0.4;

}  // namespace

double ForegroundResult::area_fraction(int width, int height) const {
  if (width <= 0 || height <= 0) return 0.0;
  // Exact union area of the clipped bounding boxes (x-slab sweep with
  // y-interval merging), so overlapping regions are not double-counted —
  // summing per-region areas inflated the adaptive background delta.
  std::vector<geom::Box> boxes;
  boxes.reserve(regions.size());
  for (const auto& r : regions) {
    const geom::Box b = r.bounds.clipped(width, height);
    if (!b.empty()) boxes.push_back(b);
  }
  if (boxes.empty()) return 0.0;

  std::vector<double> xs;
  xs.reserve(boxes.size() * 2);
  for (const auto& b : boxes) {
    xs.push_back(b.x0);
    xs.push_back(b.x1);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  double area = 0.0;
  std::vector<std::pair<double, double>> spans;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const double slab_w = xs[i + 1] - xs[i];
    if (slab_w <= 0.0) continue;
    spans.clear();
    for (const auto& b : boxes)
      if (b.x0 <= xs[i] && b.x1 >= xs[i + 1]) spans.emplace_back(b.y0, b.y1);
    if (spans.empty()) continue;
    std::sort(spans.begin(), spans.end());
    double covered = 0.0;
    double cur_lo = spans.front().first;
    double cur_hi = spans.front().second;
    for (const auto& [lo, hi] : spans) {
      if (lo > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    area += covered * slab_w;
  }
  return std::clamp(area / (static_cast<double>(width) * height), 0.0, 1.0);
}

ForegroundResult ForegroundExtractor::extract(
    const PreprocessResult& pre, const geom::PinholeCamera& camera) {
  // Fallback path: stopped agent or unusable field -> reuse latest
  // foreground (Sec. III-A, FE component).
  if (pre.mvs.empty() || !pre.agent_moving) {
    ForegroundResult out = last_;
    out.from_fallback = true;
    return out;
  }

  const GroundEstimate ground = ground_.estimate(pre, camera);
  if (!ground.valid) {
    ForegroundResult out = last_;
    out.from_fallback = true;
    return out;
  }

  auto clusters = clusterer_.grow(pre, ground.seed_indices,
                                  ground.ground_mask, ground.in_hull_mask);
  clusters = clusterer_.merge(std::move(clusters));

  ForegroundResult out;
  out.valid = true;
  out.ground_threshold = ground.threshold;
  out.seed_count = static_cast<int>(ground.seed_indices.size());

  const double mb = codec::kMacroblockSize;
  const double pad = config_.hull_padding_px;
  for (const auto& cluster : clusters) {
    // Hull over all four corners of every member macroblock, padded.
    std::vector<geom::Vec2> corners;
    corners.reserve(cluster.members.size() * 4);
    for (int idx : cluster.members) {
      const double col = idx % pre.mb_cols;
      const double row = idx / pre.mb_cols;
      const double x0 = col * mb - pad;
      const double y0 = row * mb - pad;
      const double x1 = (col + 1) * mb + pad;
      const double y1 = (row + 1) * mb + pad;
      corners.push_back({x0, y0});
      corners.push_back({x1, y0});
      corners.push_back({x0, y1});
      corners.push_back({x1, y1});
    }
    ForegroundRegion region;
    region.hull = geom::convex_hull(std::move(corners));
    region.bounds = geom::bounding_box(region.hull)
                        .clipped(camera.width(), camera.height());
    region.mean_mv = cluster.mean_mv;
    region.macroblocks = cluster.size();
    if (!region.bounds.empty()) out.regions.push_back(std::move(region));
  }

  // Temporal carry: ride recently *extracted* regions forward along their
  // motion unless a fresh region already covers them. Every carried copy
  // is derived from its age-0 original (hull + age * mean_mv), never from
  // a previously carried copy, so clipping losses and stale motion do not
  // compound frame over frame; once a fresh extraction covers the object
  // the source is dropped and the fresh geometry takes over.
  std::vector<CarrySource> kept;
  kept.reserve(carry_.size());
  for (auto& src : carry_) {
    ++src.age;
    if (src.age > config_.temporal_carry_frames) continue;
    ForegroundRegion carried;
    carried.hull = src.hull;
    const geom::Vec2 shift = src.mean_mv * static_cast<double>(src.age);
    for (auto& v : carried.hull) v += shift;
    carried.bounds = geom::bounding_box(carried.hull)
                         .clipped(camera.width(), camera.height());
    carried.mean_mv = src.mean_mv;
    carried.macroblocks = src.macroblocks;
    carried.age = src.age;
    if (carried.bounds.empty()) continue;
    bool suppressed = false;
    for (const auto& fresh : out.regions) {
      if (fresh.age == 0 &&
          geom::iou(fresh.bounds, carried.bounds) > kCarrySuppressIou) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) continue;  // replaced by a fresh extraction
    out.regions.push_back(std::move(carried));
    kept.push_back(std::move(src));
  }
  carry_ = std::move(kept);

  // This frame's fresh regions seed the next frames' carries.
  for (const auto& r : out.regions)
    if (r.age == 0)
      carry_.push_back({r.hull, r.mean_mv, r.macroblocks, 0});

  last_ = out;
  return out;
}

}  // namespace dive::core
