// Property tests of the padded half-pel reference planes
// (codec/ref_planes.h) against the clamped per-pixel reference definition
// half_pel_sample. Motion search reads every SAD/SATD candidate through
// RefPlanes::block, and the on-demand predictor of every other reader
// (the encoder's SKIP check and MC, the decoder) is checked against it
// (mc_predict_test.cpp), so these properties are what keeps the goldens
// unchanged:
//   1. every padded sample of all four planes is half_pel_sample at the
//      matching half-pel coordinate;
//   2. block SAD and 8x8 MC reads through the planes equal the clamped
//      definition for every vector a search can reach, ±(2*range+2)
//      half-pel, at interior and border blocks;
//   3. the same holds for hostile decoder vectors out to ±2*width/height,
//      which land far past the pad and exercise the origin clamp.
// Random planes come in luma and chroma (W/2 x H/2) sizes, plus one odd
// size.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "codec/motion_search.h"
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

/// The `n` x `n` block read through the planes equals the clamped
/// definition, sample for sample.
::testing::AssertionResult block_matches(const RefPlanes& planes,
                                         const video::Plane& ref, int bx,
                                         int by, MotionVector mv, int n) {
  const std::uint8_t* r = planes.block(bx, by, mv);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      const int want =
          half_pel_sample(ref, 2 * (bx + x) - mv.dx, 2 * (by + y) - mv.dy);
      const int got = r[y * planes.stride() + x];
      if (got != want)
        return ::testing::AssertionFailure()
               << "block (" << bx << "," << by << ") mv (" << mv.dx << ","
               << mv.dy << ") sample (" << x << "," << y << "): " << got
               << " != " << want;
    }
  return ::testing::AssertionSuccess();
}

/// Per-pixel SAD against the clamped definition.
std::uint32_t reference_sad(const video::Plane& cur, const video::Plane& ref,
                            int cx, int cy, MotionVector mv) {
  std::uint32_t acc = 0;
  for (int y = 0; y < kMb; ++y)
    for (int x = 0; x < kMb; ++x)
      acc += static_cast<std::uint32_t>(std::abs(
          static_cast<int>(cur.at(cx + x, cy + y)) -
          half_pel_sample(ref, 2 * (cx + x) - mv.dx, 2 * (cy + y) - mv.dy)));
  return acc;
}

/// Block origins at every corner and edge plus an interior one.
std::vector<std::pair<int, int>> probe_blocks(int w, int h, int n) {
  return {{0, 0}, {w - n, 0}, {0, h - n}, {w - n, h - n},
          {(w / 2 - n / 2) & ~1, (h / 2 - n / 2) & ~1}};
}

TEST(RefPlanes, EveryPaddedSampleIsTheHalfPelDefinition) {
  for (const auto& [w, h] : {std::pair{64, 48}, {32, 24}, {17, 9}}) {
    const auto ref = random_plane(w, h, static_cast<std::uint64_t>(w * h));
    for (const int pad : {kMb, kRange + kMb + 1}) {
      const RefPlanes planes(ref, pad);
      ASSERT_EQ(planes.pad(), pad);
      ASSERT_EQ(planes.stride(), w + 2 * pad);
      for (int fy = 0; fy < 2; ++fy)
        for (int fx = 0; fx < 2; ++fx)
          for (int y = -pad; y < h + pad; ++y)
            for (int x = -pad; x < w + pad; ++x) {
              // A block whose origin (ox, oy) in plane (fx, fy) holds the
              // sample at offset (x - ox, y - oy) < 16.
              const int ox = std::min(x, w + pad - kMb);
              const int oy = std::min(y, h + pad - kMb);
              const MotionVector mv{-(2 * ox + fx), -(2 * oy + fy)};
              const std::uint8_t* r = planes.block(0, 0, mv);
              const int got = r[(y - oy) * planes.stride() + (x - ox)];
              ASSERT_EQ(got, half_pel_sample(ref, 2 * x + fx, 2 * y + fy))
                  << w << "x" << h << " pad " << pad << " plane " << 2 * fy + fx
                  << " sample (" << x << "," << y << ")";
            }
    }
  }
}

TEST(RefPlanes, PadIsAtLeastOneMacroblock) {
  const auto ref = random_plane(32, 32, 5);
  EXPECT_EQ(RefPlanes(ref, 0).pad(), kMb);
  EXPECT_EQ(RefPlanes(ref, 40).pad(), 40);
}

TEST(RefPlanes, SearchWindowSadAndMcMatchTheClampedDefinition) {
  // Luma: 16x16 SAD through the dispatched and the scalar kernel. Chroma
  // (W/2 x H/2): 8x8 MC reads, the shape of chroma prediction. Both with
  // the encoder's pad (no clamp fires) and the decoder's minimal pad
  // (the clamp fires on the widest vectors).
  const int w = 64, h = 48;
  const auto cur = random_plane(w, h, 101);
  const auto ref = random_plane(w, h, 102);
  const auto chroma = random_plane(w / 2, h / 2, 103);
  const int reach = 2 * kRange + 2;
  for (const int pad : {kMb, kRange + kMb + 1}) {
    const RefPlanes planes(ref, pad);
    const RefPlanes chroma_planes(chroma, pad);
    for (const auto& [cx, cy] : probe_blocks(w, h, kMb))
      for (int dy = -reach; dy <= reach; ++dy)
        for (int dx = -reach; dx <= reach; ++dx) {
          const MotionVector mv{dx, dy};
          const std::uint32_t want = reference_sad(cur, ref, cx, cy, mv);
          ASSERT_EQ(sad_16x16(cur, planes, cx, cy, mv), want)
              << "pad " << pad << " block (" << cx << "," << cy << ") mv ("
              << dx << "," << dy << ")";
          ASSERT_EQ(sad_16x16(cur, planes, cx, cy, mv, &sad_16x16_scalar),
                    want);
          ASSERT_TRUE(block_matches(planes, ref, cx, cy, mv, kBlockSize));
        }
    for (const auto& [bx, by] : probe_blocks(w / 2, h / 2, kBlockSize))
      for (int dy = -reach; dy <= reach; ++dy)
        for (int dx = -reach; dx <= reach; ++dx) {
          // Chroma vectors are the luma vectors halved toward zero.
          const MotionVector cmv{dx / 2, dy / 2};
          ASSERT_TRUE(
              block_matches(chroma_planes, chroma, bx, by, cmv, kBlockSize));
        }
  }
}

TEST(RefPlanes, HostileDecoderVectorsClampExactly) {
  // The decoder accepts any vector within ±2*width/height half-pel; those
  // point up to a whole frame outside the plane, far past any pad.
  const int w = 64, h = 48;
  const auto luma = random_plane(w, h, 201);
  const auto chroma = random_plane(w / 2, h / 2, 202);
  const RefPlanes luma_planes(luma, kMb);
  const RefPlanes chroma_planes(chroma, kMb);
  std::vector<int> xs, ys;
  for (const int v : {0, 1, 2, 3}) {
    xs.insert(xs.end(), {2 * w - v, -2 * w + v, w + v, -w - v});
    ys.insert(ys.end(), {2 * h - v, -2 * h + v, h + v, -h - v});
  }
  xs.push_back(0);
  ys.push_back(0);
  for (const int dy : ys)
    for (const int dx : xs) {
      const MotionVector mv{dx, dy};
      for (const auto& [bx, by] : probe_blocks(w, h, kMb))
        ASSERT_TRUE(block_matches(luma_planes, luma, bx, by, mv, kMb));
      const MotionVector cmv{dx / 2, dy / 2};
      for (const auto& [bx, by] : probe_blocks(w / 2, h / 2, kBlockSize))
        ASSERT_TRUE(
            block_matches(chroma_planes, chroma, bx, by, cmv, kBlockSize));
    }
}

TEST(RefPlanes, SatdReadsThePlanes) {
  // SATD through the planes is a function of the block samples only, so
  // an identical block elsewhere in the padded area scores zero.
  const auto ref = random_plane(64, 48, 301);
  const RefPlanes planes(ref, kMb);
  video::Plane cur(64, 48);
  const MotionVector mv{-3, 5};
  for (int y = 0; y < kMb; ++y)
    for (int x = 0; x < kMb; ++x)
      cur.at(16 + x, 16 + y) = static_cast<std::uint8_t>(
          half_pel_sample(ref, 2 * (16 + x) - mv.dx, 2 * (16 + y) - mv.dy));
  EXPECT_EQ(satd_16x16(cur, planes, 16, 16, mv), 0u);
  EXPECT_GT(satd_16x16(cur, planes, 16, 16, {0, 0}), 0u);
}

}  // namespace
}  // namespace dive::codec
