#include "codec/motion_search.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace dive::codec {
namespace {

/// A textured plane with genuine 2-D structure: smooth aperiodic waves
/// (a descent gradient for pattern searches) plus per-pixel hash noise
/// (a unique global optimum for exhaustive searches).
video::Plane textured_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  const double s = static_cast<double>(seed % 17) * 0.05;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double v = 128.0 + 55.0 * std::sin(x * (0.11 + s * 0.3)) * std::sin(y * 0.13) +
                 35.0 * std::sin((x + 2 * y) * 0.045);
      const std::uint32_t hash = (static_cast<std::uint32_t>(x) * 73856093u) ^
                                 (static_cast<std::uint32_t>(y) * 19349663u) ^
                                 static_cast<std::uint32_t>(seed);
      v += static_cast<double>(hash % 11) - 5.0;
      p.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 5.0, 250.0));
    }
  }
  return p;
}

video::Plane shifted(const video::Plane& src, int dx, int dy) {
  video::Plane out(src.width, src.height);
  for (int y = 0; y < src.height; ++y)
    for (int x = 0; x < src.width; ++x)
      out.at(x, y) = src.at_clamped(x - dx, y - dy);
  return out;
}

TEST(Sad, ZeroForIdenticalBlocks) {
  const auto p = textured_plane(64, 64, 1);
  EXPECT_EQ(sad_16x16(p, RefPlanes(p, 0), 16, 16, {0, 0}), 0u);
}

TEST(Sad, DetectsShift) {
  const auto ref = textured_plane(64, 64, 2);
  const auto cur = shifted(ref, 3, -2);
  const RefPlanes planes(ref, 0);
  // True motion (3, -2) full-pel = (6, -4) half-pel.
  EXPECT_EQ(sad_16x16(cur, planes, 32, 32, {6, -4}), 0u);
  EXPECT_GT(sad_16x16(cur, planes, 32, 32, {0, 0}), 500u);
}

TEST(Sad, HalfPelInterpolates) {
  // A ramp plane: half-pel sample halfway between neighbors.
  video::Plane ref(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      ref.at(x, y) = static_cast<std::uint8_t>(x * 8);
  video::Plane cur(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      cur.at(x, y) = static_cast<std::uint8_t>(
          std::min(255, x * 8 + 4));  // cur(x) = ref(x + 0.5): mv = -0.5px
  const RefPlanes planes(ref, 0);
  const auto full = sad_16x16(cur, planes, 8, 8, {0, 0});
  const auto half = sad_16x16(cur, planes, 8, 8, {-1, 0});
  EXPECT_LT(half, full);
}

TEST(HalfPelSample, MatchesBilinear) {
  video::Plane p(4, 4);
  p.at(1, 1) = 100;
  p.at(2, 1) = 200;
  p.at(1, 2) = 50;
  p.at(2, 2) = 150;
  EXPECT_EQ(half_pel_sample(p, 2, 2), 100);
  EXPECT_EQ(half_pel_sample(p, 3, 2), 150);  // horizontal average
  EXPECT_EQ(half_pel_sample(p, 2, 3), 75);   // vertical average
  EXPECT_EQ(half_pel_sample(p, 3, 3), 125);  // 4-tap average
}

class SearchMethodTest
    : public ::testing::TestWithParam<MotionSearchMethod> {};

TEST_P(SearchMethodTest, FindsKnownTranslation) {
  const auto ref = textured_plane(96, 96, 5);
  // Pattern searches descend a cost gradient; very large displacements
  // are only guaranteed for the exhaustive methods — and for HME, whose
  // coarse-level full search covers the whole (downsampled) range.
  const bool wide_range = GetParam() == MotionSearchMethod::kEsa ||
                          GetParam() == MotionSearchMethod::kTesa ||
                          GetParam() == MotionSearchMethod::kHme;
  const std::vector<std::pair<int, int>> small = {
      {0, 0}, {2, 1}, {-4, 3}, {6, -5}};
  std::vector<std::pair<int, int>> shifts = small;
  if (wide_range) shifts.push_back({-12, -12});
  for (const auto& [dx, dy] : shifts) {
    const auto cur = shifted(ref, dx, dy);
    MotionSearchConfig cfg;
    cfg.method = GetParam();
    const MotionSearcher searcher(cfg);
    const auto field = searcher.search_frame(cur, ref);
    // Interior macroblock (border MBs see clamped content).
    const auto mv = field.at(2, 2);
    EXPECT_EQ(mv.dx, 2 * dx) << to_string(GetParam());
    EXPECT_EQ(mv.dy, 2 * dy) << to_string(GetParam());
  }
}

TEST_P(SearchMethodTest, RespectsRange) {
  const auto ref = textured_plane(96, 96, 8);
  const auto cur = shifted(ref, 40, 0);  // beyond kSearchRange (24)
  MotionSearchConfig cfg;
  cfg.method = GetParam();
  const MotionSearcher searcher(cfg);
  const auto field = searcher.search_frame(cur, ref);
  for (const auto& mv : field.mvs) {
    EXPECT_LE(std::abs(mv.dx), 2 * kSearchRange + 1);
    EXPECT_LE(std::abs(mv.dy), 2 * kSearchRange + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SearchMethodTest,
                         ::testing::Values(MotionSearchMethod::kDia,
                                           MotionSearchMethod::kHex,
                                           MotionSearchMethod::kUmh,
                                           MotionSearchMethod::kTesa,
                                           MotionSearchMethod::kEsa,
                                           MotionSearchMethod::kHme),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MotionField, NonzeroRatio) {
  MotionField f(4, 2);
  EXPECT_DOUBLE_EQ(f.nonzero_ratio(), 0.0);
  f.at(0, 0) = {2, 0};
  f.at(3, 1) = {0, -2};
  EXPECT_DOUBLE_EQ(f.nonzero_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(MotionField{}.nonzero_ratio(), 0.0);
}

TEST(MotionField, CenterCoordinates) {
  MotionField f(4, 4);
  const auto c = f.mb_center(1, 2);
  EXPECT_DOUBLE_EQ(c.x, 24.0);
  EXPECT_DOUBLE_EQ(c.y, 40.0);
}

TEST(MotionVector, HalfPelConversions) {
  const MotionVector mv{3, -5};
  EXPECT_DOUBLE_EQ(mv.as_vec2().x, 1.5);
  EXPECT_DOUBLE_EQ(mv.as_vec2().y, -2.5);
  EXPECT_EQ(MotionVector::from_fullpel(2, -3), (MotionVector{4, -6}));
  EXPECT_TRUE((MotionVector{0, 0}).is_zero());
  EXPECT_FALSE((MotionVector{1, 0}).is_zero());
}

TEST(LumaPyramid, HalvesDimensionsAndAveragesQuads) {
  video::Plane base(8, 4);
  // Quad (0,0): 10,20,30,40 -> rounded mean 25.
  base.at(0, 0) = 10;
  base.at(1, 0) = 20;
  base.at(0, 1) = 30;
  base.at(1, 1) = 40;
  const auto pyr = build_pyramid(base, 2);
  ASSERT_EQ(pyr.levels.size(), 2u);
  EXPECT_EQ(pyr.levels[0].width, 4);
  EXPECT_EQ(pyr.levels[0].height, 2);
  EXPECT_EQ(pyr.levels[1].width, 2);
  EXPECT_EQ(pyr.levels[1].height, 1);
  EXPECT_EQ(pyr.levels[0].at(0, 0), 25);
}

TEST(MotionSearch, HmeFindsLargeShiftPatternSearchesMiss) {
  // A displacement well beyond the hex pattern's descent basin: the
  // pyramid's coarse full search must still land on the true motion.
  const auto ref = textured_plane(128, 128, 21);
  const auto cur = shifted(ref, -18, 14);
  MotionSearchConfig cfg;
  cfg.method = MotionSearchMethod::kHme;
  const MotionSearcher searcher(cfg);
  const auto field = searcher.search_frame(cur, ref);
  const auto mv = field.at(3, 3);  // interior macroblock
  EXPECT_EQ(mv.dx, 2 * -18);
  EXPECT_EQ(mv.dy, 2 * 14);
}

TEST(MotionSearch, HmeMatchesConfiguredLevelClamp) {
  // HME's fixed 3-level pyramid (2 levels above full resolution) finds a
  // plain translation exactly.
  const auto ref = textured_plane(96, 96, 23);
  const auto cur = shifted(ref, 5, -3);
  MotionSearchConfig cfg;
  cfg.method = MotionSearchMethod::kHme;
  const MotionSearcher searcher(cfg);
  const auto field = searcher.search_frame(cur, ref);
  const auto mv = field.at(2, 2);
  EXPECT_EQ(mv.dx, 2 * 5);
  EXPECT_EQ(mv.dy, 2 * -3);
}

TEST(MotionSearch, ZeroBiasOnStaticNoise) {
  // Static content plus small independent noise: pattern searches must
  // report (almost) all-zero motion.
  auto ref = textured_plane(96, 96, 11);
  auto cur = ref;
  util::Rng rng(12);
  for (auto& px : cur.data) {
    const int v = px + rng.uniform_int(-2, 2);
    px = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
  }
  const MotionSearcher searcher{MotionSearchConfig{}};  // HEX default
  const auto field = searcher.search_frame(cur, ref);
  EXPECT_LT(field.nonzero_ratio(), 0.1);
}

}  // namespace
}  // namespace dive::codec
