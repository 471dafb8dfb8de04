#include "video/frame.h"

#include <gtest/gtest.h>

namespace dive::video {
namespace {

TEST(Plane, DefaultAndFill) {
  Plane p(8, 4, 77);
  EXPECT_EQ(p.size(), 32u);
  EXPECT_EQ(p.at(0, 0), 77);
  EXPECT_EQ(p.at(7, 3), 77);
}

TEST(Plane, ClampedAccess) {
  Plane p(4, 4);
  p.at(0, 0) = 10;
  p.at(3, 3) = 20;
  EXPECT_EQ(p.at_clamped(-5, -5), 10);
  EXPECT_EQ(p.at_clamped(100, 100), 20);
  EXPECT_EQ(p.at_clamped(0, 100), p.at(0, 3));
}

TEST(Frame, ChromaHalfResolution) {
  Frame f(64, 32);
  EXPECT_EQ(f.width(), 64);
  EXPECT_EQ(f.height(), 32);
  EXPECT_EQ(f.u.width, 32);
  EXPECT_EQ(f.u.height, 16);
  EXPECT_EQ(f.v.width, 32);
  EXPECT_EQ(f.byte_size(), 64u * 32 + 2u * 32 * 16);
}

TEST(Frame, DefaultPixelValues) {
  Frame f(16, 16);
  EXPECT_EQ(f.y.at(5, 5), 16);    // dark luma
  EXPECT_EQ(f.u.at(2, 2), 128);   // neutral chroma
  EXPECT_EQ(f.v.at(2, 2), 128);
}

TEST(Frame, ChromaCoSiting) {
  // 4:2:0: chroma sample (cx, cy) covers luma pixels (2cx..2cx+1,
  // 2cy..2cy+1); the planes are exactly half size, so no luma pixel maps
  // past the chroma edge.
  Frame f(16, 16);
  f.u.at(3, 2) = 200;
  const auto u_at_luma = [&f](int x, int y) { return f.u.at(x / 2, y / 2); };
  EXPECT_EQ(u_at_luma(6, 4), 200);
  EXPECT_EQ(u_at_luma(7, 5), 200);
  EXPECT_NE(u_at_luma(8, 4), 200);
  EXPECT_EQ(f.u.width * 2, f.y.width);
  EXPECT_EQ(f.u.height * 2, f.y.height);
}

TEST(Frame, EqualityAndEmpty) {
  Frame a(16, 16), b(16, 16);
  EXPECT_EQ(a, b);
  b.y.at(0, 0) = 99;
  EXPECT_NE(a, b);
  EXPECT_TRUE(Frame().empty());
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace dive::video
