#include "geom/polygon.h"

#include <cmath>

namespace dive::geom {

namespace {
/// Distance from p to segment ab is ~0 (boundary tolerance).
bool on_segment(Vec2 p, Vec2 a, Vec2 b, double eps = 1e-9) {
  const Vec2 ab = b - a;
  const Vec2 ap = p - a;
  const double cross = ab.cross(ap);
  if (std::abs(cross) > eps * (ab.norm() + 1.0)) return false;
  const double dot = ap.dot(ab);
  return dot >= -eps && dot <= ab.norm2() + eps;
}
}  // namespace

bool point_in_polygon(Vec2 p, const std::vector<Vec2>& poly) {
  const std::size_t n = poly.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (on_segment(p, poly[i], poly[(i + 1) % n])) return true;
  }
  // Even-odd ray casting along +x.
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2 a = poly[i];
    const Vec2 b = poly[j];
    const bool crosses = (a.y > p.y) != (b.y > p.y);
    if (crosses) {
      const double x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

}  // namespace dive::geom
