// On-demand motion-compensated prediction (mc_predict_u8 in
// codec/reconstruct.h) against the padded reference planes it replaces in
// the decoder and in the encoder's chroma MC: every 8x8 prediction must
// equal RefPlanes::block sample for sample, and hence the clamped
// definition half_pel_sample. Planes come in luma and chroma (W/2 x H/2)
// sizes plus one odd size; vectors cover all four half-pel phases over
// the search window at interior and border blocks, and the hostile
// vectors out to the decoder's ±2*width/height bound.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "codec/motion_search.h"
#include "codec/reconstruct.h"
#include "codec/ref_planes.h"
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

TEST(McPredict, MacroblockPredictionMatchesPerPlaneReads) {
  // predict_inter_mb (the encoder's plan) reads luma through the planes
  // and chroma on demand; each block equals the u8 prediction of its own
  // plane at its own vector.
  video::Frame ref(64, 48);
  ref.y = random_plane(64, 48, 601);
  ref.u = random_plane(32, 24, 602);
  ref.v = random_plane(32, 24, 603);
  const RefPlanes ref_y(ref.y, kMb);
  for (const MotionVector mv : {MotionVector{0, 0}, MotionVector{3, -5},
                                MotionVector{-7, 2}, MotionVector{-129, 97}})
    for (int row = 0; row < 3; ++row)
      for (int col = 0; col < 4; ++col) {
        std::array<Block8x8, kBlocksPerMb> preds;
        predict_inter_mb(ref_y, ref, col, row, mv, preds.data());
        const auto blocks = mb_blocks(col, row);
        for (int b = 0; b < kBlocksPerMb; ++b) {
          const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
          std::array<std::uint8_t, kBlockSize * kBlockSize> px;
          mc_predict_u8(plane_of(ref, blk.plane), blk.bx, blk.by,
                        blk.plane == 0 ? mv : chroma_mv(mv), px.data(),
                        kBlockSize);
          for (std::size_t i = 0; i < px.size(); ++i)
            ASSERT_EQ(preds[static_cast<std::size_t>(b)][i],
                      static_cast<double>(px[i]))
                << "mb (" << col << "," << row << ") block " << b;
        }
      }
}

}  // namespace
}  // namespace dive::codec
