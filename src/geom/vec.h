// Small fixed-size vector/matrix value types used across the geometry,
// rendering, and motion-vector pipelines. Deliberately minimal: only the
// operations this project needs, all constexpr-friendly.
#pragma once

#include <cmath>

namespace dive::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }
  Vec2& operator-=(Vec2 o) { x -= o.x; y -= o.y; return *this; }
  constexpr bool operator==(const Vec2&) const = default;

  [[nodiscard]] constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product — the signed parallelogram area.
  [[nodiscard]] constexpr double cross(Vec2 o) const { return x * o.y - y * o.x; }
  [[nodiscard]] double norm() const { return std::hypot(x, y); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
  [[nodiscard]] Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3 operator+(Vec3 o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(Vec3 o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  Vec3& operator+=(Vec3 o) { x += o.x; y += o.y; z += o.z; return *this; }
  constexpr bool operator==(const Vec3&) const = default;

  [[nodiscard]] constexpr double dot(Vec3 o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  [[nodiscard]] constexpr Vec3 cross(Vec3 o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  [[nodiscard]] double norm() const { return std::sqrt(norm2()); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y + z * z; }
  [[nodiscard]] Vec3 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec3{x / n, y / n, z / n} : Vec3{};
  }
};

constexpr Vec3 operator*(double s, Vec3 v) { return v * s; }

/// Row-major 3x3 matrix. Used for camera rotations.
struct Mat3 {
  double m[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};

  static constexpr Mat3 identity() { return {}; }

  /// Rotation about the x-axis (pitch), right-handed, radians.
  static Mat3 rot_x(double a) {
    Mat3 r;
    const double c = std::cos(a), s = std::sin(a);
    r.m[1][1] = c; r.m[1][2] = -s;
    r.m[2][1] = s; r.m[2][2] = c;
    return r;
  }
  /// Rotation about the y-axis (yaw).
  static Mat3 rot_y(double a) {
    Mat3 r;
    const double c = std::cos(a), s = std::sin(a);
    r.m[0][0] = c; r.m[0][2] = s;
    r.m[2][0] = -s; r.m[2][2] = c;
    return r;
  }

  Vec3 operator*(Vec3 v) const {
    return {m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
  }

  Mat3 operator*(const Mat3& o) const {
    Mat3 r;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) {
        double s = 0.0;
        for (int k = 0; k < 3; ++k) s += m[i][k] * o.m[k][j];
        r.m[i][j] = s;
      }
    return r;
  }

  [[nodiscard]] Mat3 transpose() const {
    Mat3 r;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) r.m[i][j] = m[j][i];
    return r;
  }
};

}  // namespace dive::geom
