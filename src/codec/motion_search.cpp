#include "codec/motion_search.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "codec/bitstream.h"
#include "util/thread_pool.h"

namespace dive::codec {

namespace {

constexpr int kMb = kMacroblockSize;
/// Coarse-level candidates carried down the pyramid for kHme. More
/// candidates approach exhaustive quality at linear extra cost.
constexpr int kHmeCandidates = 3;
/// Pyramid levels ABOVE full resolution for kHme (each level halves the
/// luma): a 3-level pyramid, whose coarsest 16x16 block covers 4x4.
constexpr int kHmeLevels = 2;
/// Rate-cost weight of the MV bits in pattern searches.
constexpr double kLambda = 6.0;
/// Reference-plane padding for the search range: every candidate block
/// lies inside the pad, so the origin clamp never moves one.
constexpr int kReferencePad = kSearchRange + kMb + 1;

}  // namespace

int half_pel_sample(const video::Plane& ref, int hx, int hy) {
  const int x0 = hx >> 1;
  const int y0 = hy >> 1;
  const bool fx = hx & 1;
  const bool fy = hy & 1;
  if (!fx && !fy) return ref.at_clamped(x0, y0);
  if (fx && !fy)
    return (ref.at_clamped(x0, y0) + ref.at_clamped(x0 + 1, y0) + 1) >> 1;
  if (!fx)
    return (ref.at_clamped(x0, y0) + ref.at_clamped(x0, y0 + 1) + 1) >> 1;
  return (ref.at_clamped(x0, y0) + ref.at_clamped(x0 + 1, y0) +
          ref.at_clamped(x0, y0 + 1) + ref.at_clamped(x0 + 1, y0 + 1) + 2) >>
         2;
}

std::uint32_t sad_16x16(const video::Plane& cur, const RefPlanes& ref,
                        int cx, int cy, MotionVector mv, Sad16Fn fast) {
  if (fast == nullptr) fast = sad_16x16_fn();
  return fast(&cur.data[static_cast<std::size_t>(cy) * cur.width + cx],
              cur.width, ref.block(cx, cy, mv), ref.stride());
}

LumaPyramid build_pyramid(const video::Plane& base, int levels) {
  LumaPyramid pyr;
  pyr.levels.reserve(static_cast<std::size_t>(std::max(0, levels)));
  const video::Plane* src = &base;
  for (int l = 0; l < levels; ++l) {
    video::Plane down(std::max(1, src->width / 2), std::max(1, src->height / 2));
    for (int y = 0; y < down.height; ++y) {
      for (int x = 0; x < down.width; ++x) {
        const int sx = 2 * x;
        const int sy = 2 * y;
        const int sum = src->at(sx, sy) + src->at_clamped(sx + 1, sy) +
                        src->at_clamped(sx, sy + 1) +
                        src->at_clamped(sx + 1, sy + 1);
        down.at(x, y) = static_cast<std::uint8_t>((sum + 2) >> 2);
      }
    }
    pyr.levels.push_back(std::move(down));
    src = &pyr.levels.back();
  }
  return pyr;
}

namespace {

/// 8x8 Hadamard transform of integer residuals, sum of |coefficients|.
std::uint32_t hadamard8_cost(int d[8][8]) {
  for (int r = 0; r < 8; ++r) {
    int* v = d[r];
    for (int len = 1; len < 8; len <<= 1) {
      for (int i = 0; i < 8; i += len << 1) {
        for (int j = i; j < i + len; ++j) {
          const int a = v[j], b = v[j + len];
          v[j] = a + b;
          v[j + len] = a - b;
        }
      }
    }
  }
  for (int c = 0; c < 8; ++c) {
    for (int len = 1; len < 8; len <<= 1) {
      for (int i = 0; i < 8; i += len << 1) {
        for (int j = i; j < i + len; ++j) {
          const int a = d[j][c], b = d[j + len][c];
          d[j][c] = a + b;
          d[j + len][c] = a - b;
        }
      }
    }
  }
  std::uint32_t acc = 0;
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      acc += static_cast<std::uint32_t>(std::abs(d[r][c]));
  return acc / 8;  // normalize roughly to SAD scale
}

}  // namespace

std::uint32_t satd_16x16(const video::Plane& cur, const RefPlanes& ref,
                         int cx, int cy, MotionVector mv) {
  const std::uint8_t* r = ref.block(cx, cy, mv);
  const int stride = ref.stride();
  std::uint32_t acc = 0;
  int d[8][8];
  for (int by = 0; by < 2; ++by) {
    for (int bx = 0; bx < 2; ++bx) {
      for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x) {
          const int ox = bx * 8 + x;
          const int oy = by * 8 + y;
          d[y][x] = static_cast<int>(cur.at(cx + ox, cy + oy)) -
                    static_cast<int>(r[oy * stride + ox]);
        }
      acc += hadamard8_cost(d);
    }
  }
  return acc;
}

namespace {

struct Candidate {
  int dx = 0;  // full-pel during the coarse stage
  int dy = 0;
  std::uint32_t cost = std::numeric_limits<std::uint32_t>::max();
};

/// Rate-aware cost for full-pel candidates (pattern searches). Bits are
/// counted for the half-pel codes actually emitted into the stream.
std::uint32_t pattern_cost(const video::Plane& cur, const RefPlanes& ref,
                           int cx, int cy, int dx, int dy, MotionVector pred,
                           Sad16Fn fast) {
  const std::uint32_t dist =
      sad_16x16(cur, ref, cx, cy, MotionVector::from_fullpel(dx, dy), fast);
  const int bits = BitWriter::se_bits(2 * dx - pred.dx) +
                   BitWriter::se_bits(2 * dy - pred.dy);
  return dist + static_cast<std::uint32_t>(kLambda * bits);
}

void consider(Candidate& best, const video::Plane& cur,
              const RefPlanes& ref, int cx, int cy, int dx, int dy,
              MotionVector pred, int range, Sad16Fn fast) {
  if (std::abs(dx) > range || std::abs(dy) > range) return;
  const std::uint32_t cost =
      pattern_cost(cur, ref, cx, cy, dx, dy, pred, fast);
  if (cost < best.cost) {
    best.cost = cost;
    best.dx = dx;
    best.dy = dy;
  }
}

template <std::size_t N>
void refine(Candidate& best, const std::array<std::pair<int, int>, N>& pattern,
            const video::Plane& cur, const RefPlanes& ref, int cx, int cy,
            MotionVector pred, int range, int max_iters, Sad16Fn fast) {
  for (int iter = 0; iter < max_iters; ++iter) {
    const int cdx = best.dx;
    const int cdy = best.dy;
    for (const auto& [dx, dy] : pattern) {
      consider(best, cur, ref, cx, cy, cdx + dx, cdy + dy, pred, range, fast);
    }
    if (best.dx == cdx && best.dy == cdy) break;
  }
}

/// SAD of the n x n block of `cur` at (cx, cy) against the same-level
/// reference displaced by full-pel (dx, dy). Used only on the small
/// downsampled planes, so it stays scalar.
std::uint32_t sad_nxn(const video::Plane& cur, const RefPlanes& ref, int cx,
                      int cy, int dx, int dy, int n) {
  const std::uint8_t* r =
      ref.block(cx, cy, MotionVector::from_fullpel(dx, dy));
  const int stride = ref.stride();
  std::uint32_t acc = 0;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      acc += static_cast<std::uint32_t>(
          std::abs(static_cast<int>(cur.at(cx + x, cy + y)) -
                   static_cast<int>(r[y * stride + x])));
  return acc;
}

/// Ranked candidate list for the pyramid descent. Insertion keeps the
/// list sorted by cost with first-seen winning ties, so the selection is
/// a pure function of evaluation order (which is fixed raster order).
struct CandidateList {
  std::array<Candidate, 8> slots;
  int count = 0;
  int capacity = 0;

  explicit CandidateList(int cap)
      : capacity(std::min<int>(cap, static_cast<int>(slots.size()))) {}

  void offer(int dx, int dy, std::uint32_t cost) {
    // Already tracked? Keep the first (equal cost by construction).
    for (int i = 0; i < count; ++i)
      if (slots[static_cast<std::size_t>(i)].dx == dx &&
          slots[static_cast<std::size_t>(i)].dy == dy)
        return;
    int pos = count;
    while (pos > 0 &&
           slots[static_cast<std::size_t>(pos - 1)].cost > cost)
      --pos;
    if (pos >= capacity) return;
    const int last = std::min(count, capacity - 1);
    for (int i = last; i > pos; --i)
      slots[static_cast<std::size_t>(i)] =
          slots[static_cast<std::size_t>(i - 1)];
    slots[static_cast<std::size_t>(pos)] = {dx, dy, cost};
    count = std::min(count + 1, capacity);
  }
};

constexpr std::array<std::pair<int, int>, 4> kDiamond{
    {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};
constexpr std::array<std::pair<int, int>, 6> kHexagon{
    {{2, 0}, {-2, 0}, {1, 2}, {1, -2}, {-1, 2}, {-1, -2}}};
constexpr std::array<std::pair<int, int>, 16> kHexadecagon{
    {{4, 0},  {4, 1},   {4, 2},  {2, 3},  {0, 4},  {-2, 3}, {-4, 2}, {-4, 1},
     {-4, 0}, {-4, -1}, {-4, -2},{-2, -3},{0, -4}, {2, -3}, {4, -2}, {4, -1}}};

}  // namespace

MotionVector MotionSearcher::search_block(const video::Plane& cur,
                                          const RefPlanes& ref, int cx,
                                          int cy, MotionVector pred,
                                          std::uint32_t& best_sad,
                                          const PyramidPair* pyr) const {
  constexpr int range = kSearchRange;
  const Sad16Fn fast = sad_fn_;
  const bool exhaustive = config_.method == MotionSearchMethod::kEsa ||
                          config_.method == MotionSearchMethod::kTesa;

  Candidate best;
  if (exhaustive) {
    // Exhaustive full-pel search, pure-distortion objective (x264's
    // ESA/TESA rank candidates by residual cost; on repetitive or plain
    // texture the global optimum is frequently not the true motion).
    const bool satd = config_.method == MotionSearchMethod::kTesa;
    for (int dy = -range; dy <= range; ++dy) {
      for (int dx = -range; dx <= range; ++dx) {
        const MotionVector mv = MotionVector::from_fullpel(dx, dy);
        const std::uint32_t cost = satd ? satd_16x16(cur, ref, cx, cy, mv)
                                        : sad_16x16(cur, ref, cx, cy, mv, fast);
        if (cost < best.cost) {
          best.cost = cost;
          best.dx = dx;
          best.dy = dy;
        }
      }
    }
  } else {
    // Pattern searches start from the predictor and the zero vector.
    const int pfx = pred.dx / 2;
    const int pfy = pred.dy / 2;
    consider(best, cur, ref, cx, cy, 0, 0, pred, range, fast);
    consider(best, cur, ref, cx, cy, pfx, pfy, pred, range, fast);

    switch (config_.method) {
      case MotionSearchMethod::kDia:
        refine(best, kDiamond, cur, ref, cx, cy, pred, range, 2 * range, fast);
        break;
      case MotionSearchMethod::kHex:
        refine(best, kHexagon, cur, ref, cx, cy, pred, range, range, fast);
        refine(best, kDiamond, cur, ref, cx, cy, pred, range, 2, fast);
        break;
      case MotionSearchMethod::kUmh: {
        // 1) Cross search at progressively coarser stride.
        for (int d = 2; d <= range; d += 2) {
          consider(best, cur, ref, cx, cy, d, 0, pred, range, fast);
          consider(best, cur, ref, cx, cy, -d, 0, pred, range, fast);
          if (d <= range / 2) {
            consider(best, cur, ref, cx, cy, 0, d, pred, range, fast);
            consider(best, cur, ref, cx, cy, 0, -d, pred, range, fast);
          }
        }
        // 2) 5x5 full search around the current best.
        const int c5x = best.dx;
        const int c5y = best.dy;
        for (int dy = -2; dy <= 2; ++dy)
          for (int dx = -2; dx <= 2; ++dx)
            consider(best, cur, ref, cx, cy, c5x + dx, c5y + dy, pred,
                     range, fast);
        // 3) Uneven multi-hexagon rings.
        const int rcx = best.dx;
        const int rcy = best.dy;
        for (int scale = 1; scale * 4 <= range; scale *= 2) {
          for (const auto& [dx, dy] : kHexadecagon)
            consider(best, cur, ref, cx, cy, rcx + dx * scale,
                     rcy + dy * scale, pred, range, fast);
        }
        // 4) Hexagon + diamond refinement.
        refine(best, kHexagon, cur, ref, cx, cy, pred, range, range, fast);
        refine(best, kDiamond, cur, ref, cx, cy, pred, range, 2, fast);
        break;
      }
      case MotionSearchMethod::kHme: {
        // Coarse-to-fine pyramid descent. A cheap full search at the
        // coarsest level covers the whole range; the top candidates are
        // re-ranked one level at a time (3x3 around each doubled
        // position) and finally evaluated with the rate-aware cost at
        // full resolution, feeding the shared refinement below.
        const int levels = pyr ? static_cast<int>(pyr->cur.levels.size()) : 0;
        if (levels > 0) {
          const int top = levels - 1;
          const int top_shift = top + 1;  // downsample factor 1 << shift
          const int n_top = kMb >> top_shift;
          const int top_range = std::max(1, range >> top_shift);
          CandidateList cands(kHmeCandidates);
          const video::Plane& tc = pyr->cur.levels[static_cast<std::size_t>(top)];
          const RefPlanes& tr = pyr->ref_planes[static_cast<std::size_t>(top)];
          const int tx = cx >> top_shift;
          const int ty = cy >> top_shift;
          for (int dy = -top_range; dy <= top_range; ++dy)
            for (int dx = -top_range; dx <= top_range; ++dx)
              cands.offer(dx, dy, sad_nxn(tc, tr, tx, ty, dx, dy, n_top));
          for (int lvl = top - 1; lvl >= 0; --lvl) {
            const int shift = lvl + 1;
            const int n = kMb >> shift;
            const int lrange = std::max(1, range >> shift);
            const video::Plane& lc =
                pyr->cur.levels[static_cast<std::size_t>(lvl)];
            const RefPlanes& lr =
                pyr->ref_planes[static_cast<std::size_t>(lvl)];
            const int lx = cx >> shift;
            const int ly = cy >> shift;
            CandidateList next(cands.capacity);
            for (int i = 0; i < cands.count; ++i) {
              const Candidate c = cands.slots[static_cast<std::size_t>(i)];
              for (int dy = -1; dy <= 1; ++dy)
                for (int dx = -1; dx <= 1; ++dx) {
                  const int ndx = std::clamp(2 * c.dx + dx, -lrange, lrange);
                  const int ndy = std::clamp(2 * c.dy + dy, -lrange, lrange);
                  next.offer(ndx, ndy, sad_nxn(lc, lr, lx, ly, ndx, ndy, n));
                }
            }
            cands = next;
          }
          for (int i = 0; i < cands.count; ++i) {
            const Candidate c = cands.slots[static_cast<std::size_t>(i)];
            for (int dy = -1; dy <= 1; ++dy)
              for (int dx = -1; dx <= 1; ++dx)
                consider(best, cur, ref, cx, cy, 2 * c.dx + dx,
                         2 * c.dy + dy, pred, range, fast);
          }
        }
        refine(best, kDiamond, cur, ref, cx, cy, pred, range, 2, fast);
        break;
      }
      case MotionSearchMethod::kEsa:
      case MotionSearchMethod::kTesa:
        break;  // handled above
    }
  }

  // Half-pel refinement around the full-pel winner (all methods; x264's
  // subpel stage). Pure SAD objective.
  MotionVector hp = MotionVector::from_fullpel(best.dx, best.dy);
  std::uint32_t hp_sad = sad_16x16(cur, ref, cx, cy, hp, fast);
  for (int iter = 0; iter < 2; ++iter) {
    const MotionVector center = hp;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const MotionVector cand{center.dx + dx, center.dy + dy};
        if (std::abs(cand.dx) > 2 * range || std::abs(cand.dy) > 2 * range)
          continue;
        const std::uint32_t s = sad_16x16(cur, ref, cx, cy, cand, fast);
        if (s < hp_sad) {
          hp_sad = s;
          hp = cand;
        }
      }
    }
    if (hp == center) break;
  }

  // Zero-MV bias (pattern searches only, like production encoders): when
  // the stationary candidate is nearly as cheap as the winner, prefer it.
  // This keeps sensor noise in plain regions from fabricating motion,
  // which matters for the eta-based ego-motion judgement (Fig. 6).
  if (!exhaustive && !hp.is_zero()) {
    const std::uint32_t zero_sad = sad_16x16(cur, ref, cx, cy, {0, 0}, fast);
    if (zero_sad <= hp_sad + std::max<std::uint32_t>(48, zero_sad / 16)) {
      hp = {0, 0};
      hp_sad = zero_sad;
    }
  }
  best_sad = hp_sad;
  return hp;
}

MotionField MotionSearcher::search_frame(const video::Plane& cur,
                                         const video::Plane& ref,
                                         util::ThreadPool* pool) const {
  const int cols = cur.width / kMb;
  const int rows = cur.height / kMb;
  MotionField field(cols, rows);
  const RefPlanes ref_planes(ref, kReferencePad);
  // The pyramid is a pure function of the two planes, built once per
  // frame (serially, before the row fan-out) and shared read-only by
  // every row, so the parallel field stays bit-identical to the serial
  // one.
  PyramidPair pyr_storage;
  const PyramidPair* pyr = nullptr;
  if (config_.method == MotionSearchMethod::kHme) {
    pyr_storage.cur = build_pyramid(cur, kHmeLevels);
    pyr_storage.ref = build_pyramid(ref, kHmeLevels);
    pyr_storage.ref_planes.reserve(std::size_t{kHmeLevels});
    for (int l = 0; l < kHmeLevels; ++l)
      pyr_storage.ref_planes.emplace_back(
          pyr_storage.ref.levels[static_cast<std::size_t>(l)],
          (kSearchRange >> (l + 1)) + kMb + 1);
    pyr = &pyr_storage;
  }
  const auto search_row = [&](int row) {
    MotionVector pred{};  // left-neighbor predictor, reset per row
    for (int col = 0; col < cols; ++col) {
      std::uint32_t sad = 0;
      const MotionVector mv =
          search_block(cur, ref_planes, col * kMb, row * kMb, pred, sad, pyr);
      field.at(col, row) = mv;
      field.sad[static_cast<std::size_t>(row) * cols + col] = sad;
      pred = mv;
    }
  };
  if (pool != nullptr && pool->thread_count() > 1) {
    pool->parallel_for(0, rows, search_row);
  } else {
    for (int row = 0; row < rows; ++row) search_row(row);
  }
  return field;
}

}  // namespace dive::codec
