#include "geom/polygon.h"

#include <gtest/gtest.h>

namespace dive::geom {
namespace {

const std::vector<Vec2> kSquare = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};

TEST(PointInPolygon, InsideOutside) {
  EXPECT_TRUE(point_in_polygon({5, 5}, kSquare));
  EXPECT_FALSE(point_in_polygon({15, 5}, kSquare));
  EXPECT_FALSE(point_in_polygon({-1, -1}, kSquare));
}

TEST(PointInPolygon, BoundaryCounts) {
  EXPECT_TRUE(point_in_polygon({0, 5}, kSquare));
  EXPECT_TRUE(point_in_polygon({10, 10}, kSquare));
  EXPECT_TRUE(point_in_polygon({5, 0}, kSquare));
}

TEST(PointInPolygon, WindingOrderIrrelevant) {
  std::vector<Vec2> reversed(kSquare.rbegin(), kSquare.rend());
  EXPECT_TRUE(point_in_polygon({5, 5}, reversed));
  EXPECT_FALSE(point_in_polygon({15, 5}, reversed));
}

TEST(PointInPolygon, ConcavePolygon) {
  // A "U" shape: the notch interior must be outside.
  const std::vector<Vec2> u = {{0, 0}, {10, 0}, {10, 10}, {7, 10},
                               {7, 3},  {3, 3},  {3, 10},  {0, 10}};
  EXPECT_TRUE(point_in_polygon({1, 5}, u));
  EXPECT_TRUE(point_in_polygon({8, 5}, u));
  EXPECT_FALSE(point_in_polygon({5, 8}, u));  // inside the notch
  EXPECT_TRUE(point_in_polygon({5, 1}, u));   // in the base
}

TEST(PointInPolygon, DegenerateInputs) {
  EXPECT_FALSE(point_in_polygon({0, 0}, {}));
  EXPECT_FALSE(point_in_polygon({0, 0}, {{0, 0}, {1, 1}}));
}

}  // namespace
}  // namespace dive::geom
