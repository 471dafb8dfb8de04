// On-demand motion-compensated prediction (mc_predict_u8 in
// codec/reconstruct.h) against the padded reference planes motion search
// reads: every 8x8 prediction must equal RefPlanes::block sample for
// sample, and hence the clamped definition half_pel_sample. The decoder,
// the encoder's SKIP check and the encoder's MC all predict this way, so
// the SKIP SAD and the macroblock predictions are checked against the
// planes too. Planes come in luma and chroma (W/2 x H/2) sizes plus one
// odd size; vectors cover all four half-pel phases over the search window
// at interior and border blocks, and the hostile vectors out to the
// decoder's ±2*width/height bound.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "codec/motion_search.h"
#include "codec/reconstruct.h"
#include "codec/ref_planes.h"
#include "codec/sad_kernels.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::codec {
namespace {

constexpr int kMb = kMacroblockSize;
constexpr int kRange = kSearchRange;  ///< full-pel

video::Plane random_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  util::Rng rng(seed);
  for (auto& b : p.data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

/// Block origins at every corner, the middle of every edge, one block
/// in from the corners, and the interior at both parities.
std::vector<std::pair<int, int>> probe_blocks(int w, int h) {
  const int n = kBlockSize;
  return {{0, 0},         {w - n, 0},     {0, h - n},
          {w - n, h - n}, {w / 2, 0},     {w / 2, h - n},
          {0, h / 2},     {w - n, h / 2}, {n, n},
          {w - 2 * n, h - 2 * n},
          {w / 2, h / 2},
          {w / 2 - 3, h / 2 + 1}};
}

/// The on-demand block equals the planes' block and the clamped
/// definition, written at a non-trivial output stride.
::testing::AssertionResult predicts_like_planes(const RefPlanes& planes,
                                                const video::Plane& ref,
                                                int bx, int by,
                                                MotionVector mv) {
  constexpr int kStride = 19;
  std::array<std::uint8_t, kStride * kBlockSize> got{};
  mc_predict_u8(ref, bx, by, mv, got.data(), kStride);
  const std::uint8_t* want = planes.block(bx, by, mv);
  for (int y = 0; y < kBlockSize; ++y)
    for (int x = 0; x < kBlockSize; ++x) {
      const int g = got[static_cast<std::size_t>(y * kStride + x)];
      const int p = want[y * planes.stride() + x];
      const int d =
          half_pel_sample(ref, 2 * (bx + x) - mv.dx, 2 * (by + y) - mv.dy);
      if (g != p || g != d)
        return ::testing::AssertionFailure()
               << ref.width << "x" << ref.height << " block (" << bx << ","
               << by << ") mv (" << mv.dx << "," << mv.dy << ") sample ("
               << x << "," << y << "): " << g << " vs planes " << p
               << " vs definition " << d;
    }
  return ::testing::AssertionSuccess();
}

struct Size {
  int w, h;
};
constexpr std::array<Size, 3> kSizes = {{{64, 48}, {32, 24}, {37, 27}}};

TEST(McPredict, SearchWindowEqualsRefPlanes) {
  // Every half-pel vector a search can reach, all four phases, at border
  // and interior blocks.
  const int reach = 2 * kRange + 2;
  for (const Size s : kSizes) {
    const auto ref = random_plane(s.w, s.h, 400 + static_cast<unsigned>(s.w));
    const RefPlanes planes(ref, kMb);
    for (const auto& [bx, by] : probe_blocks(s.w, s.h))
      for (int dy = -reach; dy <= reach; ++dy)
        for (int dx = -reach; dx <= reach; ++dx)
          ASSERT_TRUE(predicts_like_planes(planes, ref, bx, by, {dx, dy}));
  }
}

TEST(McPredict, HostileVectorsEqualRefPlanes) {
  // The decoder accepts any luma vector within ±2*width/height half-pel;
  // the chroma plane sees it halved toward zero. Both land up to a whole
  // frame outside the plane, where every read clamps.
  for (const Size s : kSizes) {
    const auto ref = random_plane(s.w, s.h, 500 + static_cast<unsigned>(s.h));
    const RefPlanes planes(ref, kMb);
    std::vector<int> xs = {0}, ys = {0};
    for (const int v : {0, 1, 2, 3}) {
      xs.insert(xs.end(), {2 * s.w - v, -2 * s.w + v, s.w + v, -s.w - v,
                           s.w / 2 + v, -s.w / 2 - v});
      ys.insert(ys.end(), {2 * s.h - v, -2 * s.h + v, s.h + v, -s.h - v,
                           s.h / 2 + v, -s.h / 2 - v});
    }
    for (const int dy : ys)
      for (const int dx : xs)
        for (const auto& [bx, by] : probe_blocks(s.w, s.h))
          ASSERT_TRUE(predicts_like_planes(planes, ref, bx, by, {dx, dy}));
  }
}

/// Half-pel vectors covering all four phases: the search window's corners
/// and centre, and the hostile ones out to ±2*width/height of a w x h
/// luma plane.
std::vector<MotionVector> probe_vectors(int w, int h) {
  std::vector<MotionVector> mvs;
  const int reach = 2 * kRange + 2;
  for (const int p : {0, 1})
    for (const int q : {0, 1})
      for (const auto& [dx, dy] :
           {std::pair{0, 0}, std::pair{reach, -reach}, std::pair{-reach, reach},
            std::pair{w, h}, std::pair{-w, h / 2}, std::pair{2 * w, -2 * h},
            std::pair{-2 * w, 2 * h}})
        mvs.push_back({dx - (dx > 0 ? p : -p), dy - (dy > 0 ? q : -q)});
  return mvs;
}

TEST(McPredict, SkipSadEqualsRefPlanesSad) {
  // The encoder's SKIP check sums the macroblock against its on-demand
  // luma prediction at the predicted MV (predict_mb_luma, rows 16 apart)
  // with the searcher's kernel. That sum must equal sad_16x16 through the
  // planes, with the dispatched and with the scalar kernel, at interior
  // and border macroblocks, for every phase and hostile predicted
  // vectors.
  for (const Size s : {Size{64, 48}, Size{48, 32}}) {
    const auto cur = random_plane(s.w, s.h, 700 + static_cast<unsigned>(s.w));
    const auto ref = random_plane(s.w, s.h, 710 + static_cast<unsigned>(s.w));
    const RefPlanes planes(ref, kMb);
    for (const Sad16Fn fn : {sad_16x16_fn(), &sad_16x16_scalar})
      for (int row = 0; row < s.h / kMb; ++row)
        for (int col = 0; col < s.w / kMb; ++col)
          for (const MotionVector mv : probe_vectors(s.w, s.h)) {
            MbLuma luma;
            predict_mb_luma(ref, col, row, mv, luma);
            const int cx = col * kMb;
            const int cy = row * kMb;
            const std::uint8_t* c =
                cur.data.data() + static_cast<std::size_t>(cy) * s.w + cx;
            ASSERT_EQ(fn(c, s.w, luma.data(), kMb),
                      sad_16x16(cur, planes, cx, cy, mv, fn))
                << s.w << "x" << s.h << " mb (" << col << "," << row
                << ") mv (" << mv.dx << "," << mv.dy << ")";
          }
  }
}

TEST(McPredict, MacroblockPredictionMatchesPerPlaneReads) {
  // predict_inter_mb (the encoder's plan) predicts every block on demand;
  // each block equals its own plane's RefPlanes::block at its own vector,
  // whether the luma is predicted here or reused from predict_mb_luma
  // (the SKIP check's prediction, passed for a macroblock coded at the
  // predicted MV).
  video::Frame ref(64, 48);
  ref.y = random_plane(64, 48, 601);
  ref.u = random_plane(32, 24, 602);
  ref.v = random_plane(32, 24, 603);
  const RefPlanes y_planes(ref.y, kMb);
  const RefPlanes u_planes(ref.u, kMb);
  const RefPlanes v_planes(ref.v, kMb);
  const std::array<const RefPlanes*, 3> planes = {&y_planes, &u_planes,
                                                  &v_planes};
  for (const MotionVector mv : probe_vectors(64, 48))
    for (int row = 0; row < 3; ++row)
      for (int col = 0; col < 4; ++col)
        for (const bool reuse : {false, true}) {
          MbLuma luma;
          predict_mb_luma(ref.y, col, row, mv, luma);
          std::array<Block8x8, kBlocksPerMb> preds;
          predict_inter_mb(ref, col, row, mv, preds.data(),
                           reuse ? &luma : nullptr);
          const auto blocks = mb_blocks(col, row);
          for (int b = 0; b < kBlocksPerMb; ++b) {
            const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
            const RefPlanes& p = *planes[static_cast<std::size_t>(blk.plane)];
            const std::uint8_t* want = p.block(
                blk.bx, blk.by, blk.plane == 0 ? mv : chroma_mv(mv));
            for (int y = 0; y < kBlockSize; ++y)
              for (int x = 0; x < kBlockSize; ++x)
                ASSERT_EQ(preds[static_cast<std::size_t>(b)]
                               [static_cast<std::size_t>(y * kBlockSize + x)],
                          static_cast<double>(want[y * p.stride() + x]))
                    << "mb (" << col << "," << row << ") block " << b
                    << " mv (" << mv.dx << "," << mv.dy << ") reuse "
                    << reuse;
          }
        }
}

}  // namespace
}  // namespace dive::codec
