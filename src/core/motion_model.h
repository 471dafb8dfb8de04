// The analytic motion-vector model of Sec. II-C/II-D: projections of
// camera translation and rotation onto the image plane. Shared by the
// preprocessing pipeline (to subtract rotational components) and by tests
// (to synthesize fields with known ground truth).
//
// All image coordinates here are *centered* (principal point at origin,
// y down), matching geom::PinholeCamera::to_centered.
#pragma once

#include "geom/vec.h"

namespace dive::core {

/// Rotational speeds about the camera axes (radians per frame interval).
struct Rotation {
  double dphi_x = 0.0;  ///< pitch
  double dphi_y = 0.0;  ///< yaw
};

/// Motion vector induced at centered image point `p` by a camera rotation
/// (Eq. 5, with roll = 0 as the paper assumes for wheeled agents).
inline geom::Vec2 rotational_mv(geom::Vec2 p, Rotation rot, double focal) {
  const double vx = -rot.dphi_y * focal + rot.dphi_x * p.x * p.y / focal -
                    rot.dphi_y * p.x * p.x / focal;
  const double vy = rot.dphi_x * focal - rot.dphi_y * p.x * p.y / focal +
                    rot.dphi_x * p.y * p.y / focal;
  return {vx, vy};
}

/// Motion vector induced at `p` by pure forward translation `dz` of the
/// camera, for a point at depth `depth` (Eq. 2 with FOE at the origin).
inline geom::Vec2 translational_mv(geom::Vec2 p, double dz, double depth) {
  return {dz * p.x / depth, dz * p.y / depth};
}

/// Normalized magnitude of a purely translational MV (Eq. 8):
/// |v| / (R * y) where R is the distance from `p` to the FOE, which is the
/// origin. For static points this equals dz / (f * Y) — constant along any
/// world height Y (Observation 2); it is the ground-estimation feature.
inline double normalized_magnitude(geom::Vec2 p, geom::Vec2 mv) {
  const double R = p.norm();
  if (R < 1e-9 || p.y <= 0.0) return 0.0;
  return mv.norm() / (R * p.y);
}

}  // namespace dive::core
