// Point-in-polygon test.
//
// Foreground extraction tests macroblock centers against the ground
// convex hull to find the foreground seed set S^t (Sec. III-C1); the QP
// assigner and the RoI gate test macroblock and tile centers against
// object hulls.
#pragma once

#include <vector>

#include "geom/vec.h"

namespace dive::geom {

/// True if `p` lies inside (or on the boundary of) the polygon.
/// Even-odd crossing rule with an explicit boundary check; vertices may be
/// in either winding order.
bool point_in_polygon(Vec2 p, const std::vector<Vec2>& polygon);

}  // namespace dive::geom
