#include "edge/detector.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dive::edge {

namespace {

struct Blob {
  int x0, y0, x1, y1;  // chroma-pixel bounds, half-open
  std::int64_t area = 0;
  std::int64_t excess_sum = 0;
};

/// One row's maximal run of hit pixels, [x0, x1) on row y.
struct Run {
  int x0, x1, y;
  int parent;  ///< union-find link; a root links to itself
  std::int64_t excess_sum;
};

int find_root(std::vector<Run>& runs, int i) {
  while (runs[static_cast<std::size_t>(i)].parent != i) {
    Run& r = runs[static_cast<std::size_t>(i)];
    r.parent = runs[static_cast<std::size_t>(r.parent)].parent;  // halving
    i = r.parent;
  }
  return i;
}

/// Merges the components of runs a and b under the smaller root index,
/// so every root is its component's first run in raster order.
void unite(std::vector<Run>& runs, int a, int b) {
  const int ra = find_root(runs, a);
  const int rb = find_root(runs, b);
  if (ra < rb) runs[static_cast<std::size_t>(rb)].parent = ra;
  else if (rb < ra) runs[static_cast<std::size_t>(ra)].parent = rb;
}

/// The eight bytes at `p` as one word (0 when all are zero).
std::uint64_t load8(const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// 4-connected components of the pixels where `key` - 128 exceeds
/// `threshold` and `other` stays below `suppression`, by run labeling:
/// one row scan finds each row's runs of hit pixels and unites a run with
/// every run of the previous row whose x-range overlaps it (runs that
/// touch only at a corner stay apart). Blobs come out in raster order of
/// their first pixel; area and excess are exact integer sums.
std::vector<Blob> label_runs(const video::Plane& key,
                             const video::Plane& other, int threshold,
                             int suppression) {
  const int w = key.width;
  const int h = key.height;
  constexpr std::uint64_t kAllHit = 0x0101010101010101ULL;
  std::vector<std::uint8_t> hit(static_cast<std::size_t>(w));
  std::vector<Run> runs;
  int prev_begin = 0;
  int prev_end = 0;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* k = key.data.data() + static_cast<std::size_t>(y) * w;
    const std::uint8_t* o =
        other.data.data() + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x)
      hit[static_cast<std::size_t>(x)] =
          static_cast<std::uint8_t>((k[x] - 128 > threshold) &
                                    (o[x] < suppression));
    const std::uint8_t* m = hit.data();
    const int row_begin = static_cast<int>(runs.size());
    int p = prev_begin;  // first previous-row run that may still overlap
    int x = 0;
    while (true) {
      // Skip misses, then take hits, eight pixels at a time where whole
      // words agree.
      while (x + 8 <= w && load8(m + x) == 0) x += 8;
      while (x < w && m[x] == 0) ++x;
      if (x == w) break;
      const int x0 = x;
      while (x + 8 <= w && load8(m + x) == kAllHit) x += 8;
      while (x < w && m[x] != 0) ++x;
      std::int64_t excess = 0;
      for (int i = x0; i < x; ++i) excess += k[i] - 128;
      const int idx = static_cast<int>(runs.size());
      runs.push_back({x0, x, y, idx, excess});
      while (p < prev_end && runs[static_cast<std::size_t>(p)].x1 <= x0) ++p;
      for (int q = p; q < prev_end && runs[static_cast<std::size_t>(q)].x0 < x;
           ++q)
        unite(runs, q, idx);
    }
    prev_begin = row_begin;
    prev_end = static_cast<int>(runs.size());
  }

  // A root precedes every other run of its component, so its blob exists
  // by the time the component's later runs are folded in.
  std::vector<Blob> blobs;
  std::vector<int> blob_of(runs.size());
  for (int i = 0; i < static_cast<int>(runs.size()); ++i) {
    const Run& r = runs[static_cast<std::size_t>(i)];
    const int root = find_root(runs, i);
    const std::int64_t len = r.x1 - r.x0;
    if (root == i) {
      blob_of[static_cast<std::size_t>(i)] = static_cast<int>(blobs.size());
      blobs.push_back({r.x0, r.y, r.x1, r.y + 1, len, r.excess_sum});
      continue;
    }
    Blob& b = blobs[static_cast<std::size_t>(
        blob_of[static_cast<std::size_t>(root)])];
    b.x0 = std::min(b.x0, r.x0);
    b.x1 = std::max(b.x1, r.x1);
    b.y1 = r.y + 1;
    b.area += len;
    b.excess_sum += r.excess_sum;
  }
  return blobs;
}

}  // namespace

DetectionList ChromaDetector::detect(const video::Frame& frame) const {
  DetectionList detections;

  const struct {
    video::ObjectClass cls;
    const video::Plane* key;    // plane the class pushes up
    const video::Plane* other;  // plane that must stay moderate
  } classes[2] = {
      {video::ObjectClass::kCar, &frame.u, &frame.v},
      {video::ObjectClass::kPedestrian, &frame.v, &frame.u},
  };

  for (const auto& spec : classes) {
    for (const Blob& b :
         label_runs(*spec.key, *spec.other, config_.chroma_excess_threshold,
                    config_.cross_suppression)) {
      if (b.area < config_.min_area_chroma_px) continue;
      Detection d;
      d.cls = spec.cls;
      // Chroma -> luma coordinates.
      d.box = {2.0 * b.x0, 2.0 * b.y0, 2.0 * b.x1, 2.0 * b.y1};
      const double mean_excess = static_cast<double>(b.excess_sum) /
                                 static_cast<double>(b.area);
      d.confidence = std::clamp(
          (mean_excess - config_.chroma_excess_threshold) /
              (config_.confidence_scale - config_.chroma_excess_threshold),
          0.05, 1.0);
      detections.push_back(d);
    }
  }

  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              return a.confidence > b.confidence;
            });
  return detections;
}

}  // namespace dive::edge
