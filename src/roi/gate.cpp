#include "roi/gate.h"

#include <algorithm>
#include <cmath>

#include "geom/box.h"
#include "geom/polygon.h"

namespace dive::roi {
namespace {

/// Propagation of background boxes between full passes: light decay,
/// same shift primitive as the MOT tracker.
constexpr edge::BoxShiftOptions kPropagate{.min_area_keep = 0.25,
                                           .confidence_decay = 0.97};
/// Propagated boxes below this confidence are dropped (a box never
/// re-confirmed by the detector eventually ages out).
constexpr double kPropagateMinConfidence = 0.2;
/// A shifted previous-frame box is dropped when a fresh detection
/// overlaps it by at least this IoU — the detector re-found the object
/// and owns it. Below, the carried copy survives: the object sat on
/// masked tiles (or the masked fragment fell under the detector's blob
/// floor) and propagation is the only source that still covers it.
constexpr double kDedupIou = 0.3;
/// Margin added around every held (previous-frame, MV-shifted) box
/// before lighting the tiles under it, absorbing shift error and
/// object growth. Held boxes are lit at run time so known objects stay
/// fully visible to the detector — a cut object yields a fragment box
/// that scores as both a false positive and a miss.
constexpr double kHeldBoxMarginPx = 4.0;

/// Pixel rectangle of tile (tx, ty) as a half-open box.
geom::Box tile_box(int tx, int ty, int tile, int width, int height) {
  const double x0 = static_cast<double>(tx) * tile;
  const double y0 = static_cast<double>(ty) * tile;
  return {x0, y0, std::min(x0 + tile, static_cast<double>(width)),
          std::min(y0 + tile, static_cast<double>(height))};
}

void fill_rect(video::Plane& plane, int x0, int y0, int x1, int y1,
               std::uint8_t value) {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, plane.width);
  y1 = std::min(y1, plane.height);
  for (int y = y0; y < y1; ++y)
    for (int x = x0; x < x1; ++x) plane.at(x, y) = value;
}

/// Deterministic detection order: confidence descending, then class and
/// geometry — merged fresh+propagated lists compare equal across runs.
void sort_detections(edge::DetectionList& dets) {
  std::sort(dets.begin(), dets.end(),
            [](const edge::Detection& a, const edge::Detection& b) {
              if (a.confidence != b.confidence)
                return a.confidence > b.confidence;
              if (a.cls != b.cls) return a.cls < b.cls;
              if (a.box.x0 != b.box.x0) return a.box.x0 < b.box.x0;
              if (a.box.y0 != b.box.y0) return a.box.y0 < b.box.y0;
              if (a.box.x1 != b.box.x1) return a.box.x1 < b.box.x1;
              return a.box.y1 < b.box.y1;
            });
}

}  // namespace

GatePlan RoiGate::plan(const RoiMetadata* meta, int width, int height) {
  const long k = planned_++;
  ++stats_.planned;
  const int tile = std::max(1, config_.tile_px);
  GatePlan p;
  p.tile_cols = (width + tile - 1) / tile;
  p.tile_rows = (height + tile - 1) / tile;

  const bool refresh_due = k % kFullRefreshInterval == 0;
  if (meta == nullptr || refresh_due || meta->width() != width ||
      meta->height() != height ||
      (meta->regions.empty() && !meta->has_motion()))
    return p;  // full-frame fallback

  const std::size_t tile_count =
      static_cast<std::size_t>(p.tile_cols) * p.tile_rows;
  std::vector<std::uint8_t> lit(tile_count, 0);
  const auto mark = [&](int tx, int ty) {
    if (tx < 0 || ty < 0 || tx >= p.tile_cols || ty >= p.tile_rows) return;
    lit[static_cast<std::size_t>(ty) * p.tile_cols + tx] = 1;
  };

  // Foreground hulls: tiles whose center falls inside a hull, plus the
  // tile under every vertex (so hulls smaller than a tile still light
  // their tile up).
  for (const auto& region : meta->regions) {
    if (region.hull.size() < 3) continue;  // degenerate: carried, not used
    const std::vector<geom::Vec2> hull = region.hull_px();
    const geom::Box bounds = geom::bounding_box(hull);
    const int tx0 = std::max(0, static_cast<int>(bounds.x0) / tile);
    const int ty0 = std::max(0, static_cast<int>(bounds.y0) / tile);
    const int tx1 = std::min(p.tile_cols - 1, static_cast<int>(bounds.x1) / tile);
    const int ty1 = std::min(p.tile_rows - 1, static_cast<int>(bounds.y1) / tile);
    for (int ty = ty0; ty <= ty1; ++ty)
      for (int tx = tx0; tx <= tx1; ++tx)
        if (geom::point_in_polygon(tile_box(tx, ty, tile, width, height).center(),
                                   hull))
          mark(tx, ty);
    for (const auto& v : hull)
      mark(static_cast<int>(v.x) / tile, static_cast<int>(v.y) / tile);
  }

  // Codec motion: macroblocks whose MV stands out against the frame's
  // median MV are content the hulls may have missed (appearing objects,
  // close parallax). The median absorbs the ego-motion component that
  // dominates raw MVs on a moving agent.
  if (meta->has_motion()) {
    std::vector<int> xs, ys;
    xs.reserve(meta->mvs.size());
    ys.reserve(meta->mvs.size());
    for (const auto& mv : meta->mvs) {
      xs.push_back(mv.dx);
      ys.push_back(mv.dy);
    }
    const auto median = [](std::vector<int>& v) {
      const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
      std::nth_element(v.begin(), mid, v.end());
      return *mid;
    };
    const int med_dx = median(xs);
    const int med_dy = median(ys);
    for (int row = 0; row < meta->mb_rows; ++row) {
      for (int col = 0; col < meta->mb_cols; ++col) {
        const std::size_t mb =
            static_cast<std::size_t>(row) * meta->mb_cols + col;
        if (!meta->skip.empty() && meta->skip[mb] != 0) continue;
        const int dev = std::abs(meta->mvs[mb].dx - med_dx) +
                        std::abs(meta->mvs[mb].dy - med_dy);
        if (dev <= config_.motion_deviation) continue;
        const int cx = col * codec::kMacroblockSize + codec::kMacroblockSize / 2;
        const int cy = row * codec::kMacroblockSize + codec::kMacroblockSize / 2;
        mark(cx / tile, cy / tile);
      }
    }
  }

  // Halo dilation (chebyshev radius) so object borders stay visible.
  if (config_.halo_tiles > 0) {
    const int r = config_.halo_tiles;
    std::vector<std::uint8_t> dilated(tile_count, 0);
    for (int ty = 0; ty < p.tile_rows; ++ty) {
      for (int tx = 0; tx < p.tile_cols; ++tx) {
        if (lit[static_cast<std::size_t>(ty) * p.tile_cols + tx] == 0)
          continue;
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            const int nx = tx + dx;
            const int ny = ty + dy;
            if (nx < 0 || ny < 0 || nx >= p.tile_cols || ny >= p.tile_rows)
              continue;
            dilated[static_cast<std::size_t>(ny) * p.tile_cols + nx] = 1;
          }
        }
      }
    }
    lit = std::move(dilated);
  }

  // Rotating scan refresh (after the halo — stripes need no border
  // margin): a column subset the compressed domain did not nominate,
  // revisited round-robin so appearing objects are discovered within
  // scan_stripes frames of entering the scene. Far-field objects move
  // with the background until they are close, and the full refresh only
  // looks every kFullRefreshInterval frames.
  if (config_.scan_stripes > 0) {
    const int stripe = static_cast<int>(k % config_.scan_stripes);
    for (int tx = stripe; tx < p.tile_cols; tx += config_.scan_stripes)
      for (int ty = 0; ty < p.tile_rows; ++ty) mark(tx, ty);
  }

  // Horizon band: distant objects enter the scene near the focus of
  // expansion — the image center row for a level camera — as tiny blobs
  // that move with the background, so neither hulls nor MV deviation nor
  // (until its stripe comes around) the rotating scan sees them on their
  // first frame. Keeping the horizon tile rows always lit removes that
  // discovery delay where it matters most.
  const int horizon_ty = (height / 2) / tile - (kHorizonRows - 1) / 2;
  for (int i = 0; i < kHorizonRows; ++i)
    for (int tx = 0; tx < p.tile_cols; ++tx) mark(tx, horizon_ty + i);

  std::size_t lit_tiles = 0;
  double lit_pixels = 0.0;
  for (int ty = 0; ty < p.tile_rows; ++ty) {
    for (int tx = 0; tx < p.tile_cols; ++tx) {
      if (lit[static_cast<std::size_t>(ty) * p.tile_cols + tx] == 0) continue;
      ++lit_tiles;
      lit_pixels += tile_box(tx, ty, tile, width, height).area();
    }
  }
  p.coverage = tile_count == 0
                   ? 1.0
                   : static_cast<double>(lit_tiles) /
                         static_cast<double>(tile_count);
  if (p.coverage >= kMaxCoverage) {
    p.coverage = 1.0;
    return p;  // gating buys too little: full-frame
  }

  p.gated = true;
  p.tiles = std::move(lit);
  p.pixel_fraction =
      lit_pixels / (static_cast<double>(width) * static_cast<double>(height));
  p.work = std::max(kMinWorkFraction, p.pixel_fraction);
  return p;
}

GatedDetections RoiGate::infer(const video::Frame& frame,
                               const RoiMetadata* meta, const GatePlan& plan) {
  GatedDetections out;
  if (!plan.gated) {
    out.detections = server_->infer_raw(frame);
    out.fresh = static_cast<int>(out.detections.size());
    held_ = out.detections;
    ++stats_.full;
    return out;
  }
  ++stats_.gated;

  const int width = frame.width();
  const int height = frame.height();
  const int tile = std::max(1, config_.tile_px);

  // Known objects ride the motion field to their expected positions
  // first, and the tiles under them are lit on top of the plan's
  // hull/motion tiles: a previously seen object stays FULLY visible to
  // the detector, because a cut object yields a fragment box that scores
  // as both a false positive and a miss. Held boxes are run-time state
  // updated strictly in per-session frame order, so the augmented tile
  // set — like everything else here — is independent of scheduling.
  const codec::MotionField field =
      meta != nullptr ? meta->motion_field() : codec::MotionField{};
  edge::DetectionList shifted = edge::shift_by_mean_mv(
      held_, field, width, height, kPropagate);
  std::vector<std::uint8_t> tiles = plan.tiles;
  for (const auto& det : shifted) {
    if (det.confidence < kPropagateMinConfidence) continue;
    const double m = kHeldBoxMarginPx;
    const int tx0 = std::max(0, static_cast<int>(det.box.x0 - m) / tile);
    const int ty0 = std::max(0, static_cast<int>(det.box.y0 - m) / tile);
    const int tx1 =
        std::min(plan.tile_cols - 1, static_cast<int>(det.box.x1 + m) / tile);
    const int ty1 =
        std::min(plan.tile_rows - 1, static_cast<int>(det.box.y1 + m) / tile);
    for (int ty = ty0; ty <= ty1; ++ty)
      for (int tx = tx0; tx <= tx1; ++tx)
        tiles[static_cast<std::size_t>(ty) * plan.tile_cols + tx] = 1;
  }

  // Reset background tiles to neutral so the detector only sees the
  // foreground. Chroma rectangles round outward (4:2:0 planes).
  video::Frame masked = frame;
  double lit_pixels = 0.0;
  for (int ty = 0; ty < plan.tile_rows; ++ty) {
    for (int tx = 0; tx < plan.tile_cols; ++tx) {
      const int x0 = tx * tile;
      const int y0 = ty * tile;
      const int x1 = std::min(x0 + tile, width);
      const int y1 = std::min(y0 + tile, height);
      if (tiles[static_cast<std::size_t>(ty) * plan.tile_cols + tx] != 0) {
        lit_pixels += static_cast<double>(x1 - x0) * (y1 - y0);
        continue;
      }
      fill_rect(masked.y, x0, y0, x1, y1, 16);
      fill_rect(masked.u, x0 / 2, y0 / 2, (x1 + 1) / 2, (y1 + 1) / 2, 128);
      fill_rect(masked.v, x0 / 2, y0 / 2, (x1 + 1) / 2, (y1 + 1) / 2, 128);
    }
  }
  out.pixel_fraction =
      lit_pixels / (static_cast<double>(width) * static_cast<double>(height));

  edge::DetectionList merged = server_->infer_raw(masked);
  out.fresh = static_cast<int>(merged.size());
  out.gated = true;

  // Propagation now only covers detector misses: a fresh detection
  // overlapping a shifted box claims the object and supersedes the
  // carried copy; unclaimed boxes survive with decayed confidence.
  // Claiming is one-to-one — a single fresh box over two close objects
  // must not absorb both carried copies, or the second object vanishes.
  std::vector<bool> fresh_used(static_cast<std::size_t>(out.fresh), false);
  for (auto& det : shifted) {
    if (det.confidence < kPropagateMinConfidence) continue;
    int best = -1;
    double best_iou = kDedupIou;
    for (int i = 0; i < out.fresh; ++i) {
      if (fresh_used[static_cast<std::size_t>(i)]) continue;
      if (merged[static_cast<std::size_t>(i)].cls != det.cls) continue;
      const double overlap =
          geom::iou(merged[static_cast<std::size_t>(i)].box, det.box);
      if (overlap >= best_iou) {
        best = i;
        best_iou = overlap;
      }
    }
    if (best >= 0) {
      fresh_used[static_cast<std::size_t>(best)] = true;
      continue;
    }
    merged.push_back(det);
    ++out.propagated;
  }

  sort_detections(merged);
  stats_.propagated_boxes += out.propagated;
  out.detections = merged;
  held_ = std::move(merged);
  return out;
}

GatedDetections RoiGate::run(std::span<const std::uint8_t> data,
                             const RoiMetadata* meta, const GatePlan& plan) {
  const codec::DecodedFrame decoded = server_->decode(data);
  return infer(decoded.frame, meta, plan);
}

edge::InferenceResult RoiGate::process(std::span<const std::uint8_t> data,
                                       const RoiMetadata* meta,
                                       util::SimTime arrival,
                                       GatePlan* plan_out) {
  const codec::DecodedFrame decoded = server_->decode(data);
  GatePlan p = plan(meta, decoded.frame.width(), decoded.frame.height());
  GatedDetections gated = infer(decoded.frame, meta, p);

  const auto& sc = server_->config();
  const util::SimTime inference = static_cast<util::SimTime>(std::llround(
      static_cast<double>(sc.inference_latency) * p.work));
  const util::SimTime jitter = server_->take_jitter();

  edge::InferenceResult result;
  result.detections = std::move(gated.detections);
  result.result_at_agent =
      arrival + sc.decode_latency + inference + jitter + edge::kDownlinkDelay;
  if (plan_out != nullptr) *plan_out = p;
  return result;
}

}  // namespace dive::roi
