#include "geom/convex_hull.h"

#include <algorithm>
#include <cmath>

namespace dive::geom {

namespace {
double cross3(Vec2 o, Vec2 a, Vec2 b) { return (a - o).cross(b - o); }
}  // namespace

std::vector<Vec2> convex_hull(std::vector<Vec2> pts) {
  std::sort(pts.begin(), pts.end(), [](Vec2 a, Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const std::size_t n = pts.size();
  if (n < 3) return pts;

  std::vector<Vec2> hull(2 * n);
  std::size_t k = 0;
  // Lower hull.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && cross3(hull[k - 2], hull[k - 1], pts[i]) <= 0.0) --k;
    hull[k++] = pts[i];
  }
  // Upper hull.
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {
    while (k >= t && cross3(hull[k - 2], hull[k - 1], pts[i]) <= 0.0) --k;
    hull[k++] = pts[i];
  }
  hull.resize(k - 1);
  return hull;
}

double polygon_area(const std::vector<Vec2>& polygon) {
  const std::size_t n = polygon.size();
  if (n < 3) return 0.0;
  double area2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    area2 += polygon[i].cross(polygon[(i + 1) % n]);
  }
  return std::abs(area2) * 0.5;
}

}  // namespace dive::geom
