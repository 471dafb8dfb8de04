// Ray-casting renderer: Scene + time + camera pose -> YUV420 frame with
// exact per-object pixel annotations.
//
// Per pixel, the renderer intersects the view ray with the ground plane
// and every oriented-box object whose projected screen bound covers the
// pixel's tile, shades the nearest hit with a procedural world- or
// object-anchored texture, and adds per-frame sensor noise. Textures are
// anchored in world space (ground/buildings) or object space (cars,
// pedestrians) so that codec block matching recovers the true projective
// motion field — the property all of DiVE's observations rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/pinhole_camera.h"
#include "video/frame.h"
#include "video/scene.h"

namespace dive::video {

/// Ground-truth record for one visible object in a rendered frame.
struct RenderedObject {
  int object_index = -1;        ///< index into Scene::objects()
  ObjectClass cls = ObjectClass::kCar;
  geom::Box pixel_box;          ///< tight box over actually visible pixels
  int pixel_count = 0;          ///< visible (unoccluded) pixels
  double depth = 0.0;           ///< mean hit depth, meters
};

struct RenderResult {
  Frame frame;
  std::vector<RenderedObject> objects;  ///< cars + pedestrians only
};

/// Minimum visible pixels for an object to be annotated.
inline constexpr int kMinAnnotationPixels = 30;

struct RenderOptions {
  /// Rain droplet streaks (DESIGN.md §16): expected fraction of 8-pixel
  /// screen columns carrying a bright streak per frame, in [0, 1]. The
  /// streak layout is a pure hash of the per-frame noise seed, so renders
  /// stay deterministic and every frame gets a fresh (fast-falling)
  /// streak pattern. 0 disables (bit-identical to no rain layer).
  double rain_streak_density = 0.0;
};

/// Rejects out-of-domain render knobs with std::invalid_argument
/// (rain density outside [0, 1]).
void validate(const RenderOptions& options);

class Renderer {
 public:
  Renderer(geom::PinholeCamera camera, RenderOptions options = {})
      : camera_(camera), options_(options) {
    validate(options_);
  }

  [[nodiscard]] const geom::PinholeCamera& camera() const { return camera_; }

  /// Renders the scene at simulation time `t` from `pose`. `noise_seed`
  /// varies per frame so sensor noise decorrelates across frames. The
  /// result depends only on the arguments: render() is const, keeps no
  /// state between calls and is safe to call concurrently on one
  /// Renderer and Scene (generate_clip renders a clip's frames so).
  [[nodiscard]] RenderResult render(const Scene& scene, double t,
                                    const geom::CameraPose& pose,
                                    std::uint64_t noise_seed) const;

 private:
  geom::PinholeCamera camera_;
  RenderOptions options_;
};

}  // namespace dive::video
