#include "video/renderer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dive::video {

void validate(const RenderOptions& options) {
  if (options.rain_streak_density < 0.0 || options.rain_streak_density > 1.0)
    throw std::invalid_argument(
        "RenderOptions: rain_streak_density outside [0, 1]");
}

namespace {

/// Luma lift at a rain streak's core (falls off over the streak length).
constexpr double kRainStreakLuma = 42.0;

using geom::Vec2;
using geom::Vec3;

// ---------------------------------------------------------------------
// Deterministic procedural textures (value noise on a hashed lattice).
// ---------------------------------------------------------------------

std::uint32_t hash_u32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7FEB352DU;
  x ^= x >> 15;
  x *= 0x846CA68BU;
  x ^= x >> 16;
  return x;
}

std::uint32_t hash2(std::int32_t x, std::int32_t y, std::uint32_t seed) {
  return hash_u32(static_cast<std::uint32_t>(x) * 0x8DA6B343U ^
                  static_cast<std::uint32_t>(y) * 0xD8163841U ^ seed);
}

/// Uniform [0,1) from a lattice cell.
double lattice(std::int32_t x, std::int32_t y, std::uint32_t seed) {
  return static_cast<double>(hash2(x, y, seed)) / 4294967296.0;
}

/// The four lattice corners of one value-noise cell. Neighbouring pixels
/// mostly sample the same cell, so a field that keeps its last cell
/// hashes only when a lookup crosses into another one.
struct NoiseCell {
  bool valid = false;
  std::int32_t ix = 0, iy = 0;
  double v00 = 0.0, v10 = 0.0, v01 = 0.0, v11 = 0.0;
};

/// Bilinear value noise in [0,1); `scale` is meters per cell. `cell`
/// holds the corners of the last cell this field looked up.
double value_noise(double x, double y, double scale, std::uint32_t seed,
                   NoiseCell& cell) {
  const double fx = x / scale;
  const double fy = y / scale;
  const auto ix = static_cast<std::int32_t>(std::floor(fx));
  const auto iy = static_cast<std::int32_t>(std::floor(fy));
  const double tx = fx - std::floor(fx);
  const double ty = fy - std::floor(fy);
  if (!cell.valid || cell.ix != ix || cell.iy != iy) {
    cell.valid = true;
    cell.ix = ix;
    cell.iy = iy;
    cell.v00 = lattice(ix, iy, seed);
    cell.v10 = lattice(ix + 1, iy, seed);
    cell.v01 = lattice(ix, iy + 1, seed);
    cell.v11 = lattice(ix + 1, iy + 1, seed);
  }
  const double a = cell.v00 * (1.0 - tx) + cell.v10 * tx;
  const double b = cell.v01 * (1.0 - tx) + cell.v11 * tx;
  return a * (1.0 - ty) + b * ty;
}

double value_noise(double x, double y, double scale, std::uint32_t seed) {
  NoiseCell cell;
  return value_noise(x, y, scale, seed, cell);
}

double fract(double x) { return x - std::floor(x); }

std::uint8_t clamp_u8(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

struct Yuv {
  double y = 0.0, u = 128.0, v = 128.0;
};

// ---------------------------------------------------------------------
// Materials. Chroma signatures: cars push U up (detector key), pedestrians
// push V up; everything else stays within +-10 of neutral 128.
// ---------------------------------------------------------------------

/// The last cell of each of the ground's three noise fields.
struct GroundCells {
  NoiseCell gate, tex, tex2;
};

Yuv shade_ground(const SceneParams& p, double wx, double wz,
                 GroundCells& cells) {
  Yuv out;
  // Plain-patch gate: low-frequency noise decides where the asphalt is
  // featureless (those areas produce the noisy MVs the paper discusses).
  const double gate = value_noise(wx, wz, 9.0, 0xA11CE5u, cells.gate);
  const double strength =
      gate < p.plain_patch_fraction ? 0.12 : 0.55 + 0.45 * gate;
  const double tex =
      value_noise(wx, wz, p.texture_scale, 0x50ADu, cells.tex) - 0.5;

  if (std::abs(wx) < p.road_half_width) {
    out.y = 74.0 + 52.0 * tex * strength;
    // Dashed lane markings at x = 0 and +-lane_width.
    for (double lane_x : {-p.lane_width, 0.0, p.lane_width}) {
      if (std::abs(wx - lane_x) < 0.09 && fract(wz / 3.0) < 0.45) {
        out.y = 205.0 + 30.0 * tex;
      }
    }
    out.u = 128.0 + 10.0 * tex;
    out.v = 128.0 + 8.0 * tex;
  } else {
    // Sidewalk / verge: brighter, slightly green.
    const double tex2 = value_noise(wx, wz, 0.6, 0x51DEu, cells.tex2) - 0.5;
    out.y = 108.0 + 48.0 * tex2 * (0.3 + 0.7 * strength);
    out.u = 121.0 + 8.0 * tex2;
    out.v = 123.0 + 8.0 * tex2;
  }
  return out;
}

Yuv shade_sky(Vec3 dir) {
  Yuv out;
  const double up = std::clamp(-dir.y, 0.0, 1.0);  // y-down: up is -y
  out.y = 232.0 - 55.0 * up;
  out.u = 133.0;
  out.v = 122.0;
  return out;
}

/// A building's per-facade constants, hashed once per frame instead of
/// once per pixel.
struct Facade {
  double base = 0.0;      ///< wall tone
  double period_u = 1.0;  ///< window spacing along the face, meters
  double period_v = 1.0;  ///< window spacing up the face, meters
  double u = 128.0, v = 128.0;
};

Facade facade(std::uint32_t seed) {
  Facade f;
  f.base = 80.0 + 50.0 * lattice(0, 0, seed);
  f.period_u = 1.8 + 1.4 * lattice(3, 0, seed);
  f.period_v = 2.3 + 1.0 * lattice(4, 0, seed);
  f.u = 128.0 + 9.0 * (lattice(1, 0, seed) - 0.5);
  f.v = 128.0 + 9.0 * (lattice(2, 0, seed) - 0.5);
  return f;
}

Yuv shade_building(std::uint32_t seed, const Facade& f, Vec3 local,
                   Vec3 half) {
  Yuv out;
  // Window grid keyed to the face's in-plane coordinates. Spacing varies
  // per building and every window cell gets its own brightness: a
  // perfectly periodic facade would let block matching lock onto the
  // wrong window (a one-period shift), fabricating a coherent phantom
  // motion field — real facades are not that regular.
  const bool x_face = std::abs(std::abs(local.x) - half.x) < 1e-6;
  const double uu = x_face ? local.z : local.x;
  const double vv = -local.y;  // height above ground
  const auto iu = static_cast<std::int32_t>(std::floor(uu / f.period_u));
  const auto iv = static_cast<std::int32_t>(std::floor(vv / f.period_v));
  const bool window = fract(uu / f.period_u) > 0.35 &&
                      fract(uu / f.period_u) < 0.8 &&
                      fract(vv / f.period_v) > 0.3 &&
                      fract(vv / f.period_v) < 0.75;
  const double cell_tone = 60.0 * (lattice(iu, iv, seed ^ 0x77AAu) - 0.5);
  const double tex = value_noise(uu, vv, 0.3, seed ^ 0xB11Du) - 0.5;
  out.y = (window ? f.base - 45.0 + cell_tone : f.base + 25.0) + 18.0 * tex;
  out.u = f.u;
  out.v = f.v;
  return out;
}

Yuv shade_car(std::uint32_t seed, Vec3 local, Vec3 half) {
  Yuv out;
  const double body = 70.0 + 120.0 * lattice(0, 1, seed);
  const double h = -local.y;  // height above ground within [0, 2*half.y]
  const double window_lo = 2.0 * half.y * 0.55;
  const double window_hi = 2.0 * half.y * 0.9;
  const bool window_band = h > window_lo && h < window_hi;
  const bool x_face = std::abs(std::abs(local.x) - half.x) < 1e-6;
  const double uu = x_face ? local.z : local.x;
  const double tex = value_noise(uu, h, 0.22, seed ^ 0xCA3u) - 0.5;
  out.y = (window_band ? 48.0 : body) + 26.0 * tex;
  // Car chroma key: +U excess with texture — the margin over the detector
  // threshold is deliberately moderate so codec quantization genuinely
  // erodes detectability (Fig. 12's AP-vs-QP knee).
  out.u = 160.0 + 18.0 * tex;
  out.v = 119.0 + 8.0 * tex;
  return out;
}

Yuv shade_pedestrian(std::uint32_t seed, Vec3 local, Vec3 half) {
  Yuv out;
  const double h = -local.y;
  const bool head = h > 2.0 * half.y * 0.82;
  const double uu = local.x + local.z;
  const double stripes =
      value_noise(uu * 3.0, h * 2.0, 0.25, seed ^ 0x9EDu) - 0.5;
  out.y = (head ? 150.0 : 95.0) + 52.0 * stripes;
  // Pedestrian chroma key: +V excess, same moderate-margin rationale as
  // the car key.
  out.u = 119.0 + 8.0 * stripes;
  out.v = 163.0 + 16.0 * stripes;
  return out;
}

// ---------------------------------------------------------------------
// Geometry helpers.
// ---------------------------------------------------------------------

struct ObjectPose {
  Vec3 center;
  double cos_yaw = 1.0;
  double sin_yaw = 0.0;
  Vec3 half;
  /// The frame's ray origin in the box frame: every ray of a frame starts
  /// at the camera, so this is resolved once per object, not per ray.
  Vec3 origin;
};

/// World -> box-local direction or offset (rotate by -yaw about y).
Vec3 to_box(const ObjectPose& obb, Vec3 v) {
  const double c = obb.cos_yaw, s = obb.sin_yaw;
  return {c * v.x - s * v.z, v.y, s * v.x + c * v.z};
}

/// Ray/oriented-box intersection via slab test in the box frame, for a
/// ray from the frame's camera. Returns hit distance and the local hit
/// point.
bool ray_obb(const ObjectPose& obb, Vec3 dir, double& t_hit,
             Vec3& local_hit) {
  const Vec3 o = obb.origin;
  const Vec3 d = to_box(obb, dir);

  double t0 = 1e-4;
  double t1 = std::numeric_limits<double>::infinity();
  const double od[3] = {o.x, o.y, o.z};
  const double dd[3] = {d.x, d.y, d.z};
  const double hh[3] = {obb.half.x, obb.half.y, obb.half.z};
  for (int a = 0; a < 3; ++a) {
    if (std::abs(dd[a]) < 1e-12) {
      if (std::abs(od[a]) > hh[a]) return false;
      continue;
    }
    double near = (-hh[a] - od[a]) / dd[a];
    double far = (hh[a] - od[a]) / dd[a];
    if (near > far) std::swap(near, far);
    t0 = std::max(t0, near);
    t1 = std::min(t1, far);
    if (t0 > t1) return false;
  }
  t_hit = t0;
  local_hit = {o.x + d.x * t0, o.y + d.y * t0, o.z + d.z * t0};
  // Snap the dominant axis exactly onto the face so shaders can detect it.
  double best = -1.0;
  int axis = 0;
  const double lv[3] = {local_hit.x, local_hit.y, local_hit.z};
  for (int a = 0; a < 3; ++a) {
    const double closeness = std::abs(std::abs(lv[a]) - hh[a]);
    if (best < 0.0 || closeness < best) {
      best = closeness;
      axis = a;
    }
  }
  if (axis == 0) local_hit.x = std::copysign(hh[0], local_hit.x);
  if (axis == 1) local_hit.y = std::copysign(hh[1], local_hit.y);
  if (axis == 2) local_hit.z = std::copysign(hh[2], local_hit.z);
  return true;
}

constexpr int kTileShift = 5;  // 32-pixel screen tiles for object culling

}  // namespace

RenderResult Renderer::render(const Scene& scene, double t,
                              const geom::CameraPose& pose,
                              std::uint64_t noise_seed) const {
  const int W = camera_.width();
  const int H = camera_.height();
  RenderResult result;
  result.frame = Frame(W, H);

  const geom::Mat3 cam_to_world = pose.camera_to_world();
  const Vec3 origin = pose.position;

  // Resolve object poses once and build per-tile candidate lists.
  const auto& objects = scene.objects();
  std::vector<ObjectPose> poses(objects.size());
  std::vector<Facade> facades(objects.size());  ///< buildings on screen
  const int tiles_x = (W + (1 << kTileShift) - 1) >> kTileShift;
  const int tiles_y = (H + (1 << kTileShift) - 1) >> kTileShift;
  std::vector<std::vector<std::uint16_t>> tile_objects(
      static_cast<std::size_t>(tiles_x) * tiles_y);

  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& obj = objects[i];
    ObjectPose& op = poses[i];
    op.center = obj.center_at(t);
    const double yaw = obj.yaw_at(t);
    op.cos_yaw = std::cos(yaw);
    op.sin_yaw = std::sin(yaw);
    op.half = obj.half;
    op.origin = to_box(op, origin - op.center);

    // Conservative screen bound from the 8 corners.
    double x0 = 1e18, y0 = 1e18, x1 = -1e18, y1 = -1e18;
    bool any_front = false, any_behind = false;
    for (int cx = -1; cx <= 1; cx += 2)
      for (int cy = -1; cy <= 1; cy += 2)
        for (int cz = -1; cz <= 1; cz += 2) {
          // Box-local corner -> world (rotate by +yaw).
          const Vec3 lc{cx * obj.half.x, cy * obj.half.y, cz * obj.half.z};
          const Vec3 wc{op.center.x + op.cos_yaw * lc.x + op.sin_yaw * lc.z,
                        op.center.y + lc.y,
                        op.center.z - op.sin_yaw * lc.x + op.cos_yaw * lc.z};
          const Vec3 pc = pose.world_to_camera(wc);
          if (pc.z <= 0.1) {
            any_behind = true;
            continue;
          }
          any_front = true;
          const Vec2 pix = camera_.to_pixel(
              {camera_.focal() * pc.x / pc.z, camera_.focal() * pc.y / pc.z});
          x0 = std::min(x0, pix.x);
          y0 = std::min(y0, pix.y);
          x1 = std::max(x1, pix.x);
          y1 = std::max(y1, pix.y);
        }
    if (!any_front) continue;  // fully behind the camera
    if (any_behind) {
      // Straddles the near plane: conservatively cover the screen.
      x0 = 0; y0 = 0; x1 = W; y1 = H;
    }
    const int tx0 = std::clamp(static_cast<int>(x0) >> kTileShift, 0, tiles_x - 1);
    const int ty0 = std::clamp(static_cast<int>(y0) >> kTileShift, 0, tiles_y - 1);
    const int tx1 = std::clamp(static_cast<int>(x1) >> kTileShift, 0, tiles_x - 1);
    const int ty1 = std::clamp(static_cast<int>(y1) >> kTileShift, 0, tiles_y - 1);
    if (x1 < 0 || y1 < 0 || x0 >= W || y0 >= H) continue;
    if (obj.cls == ObjectClass::kBuilding)
      facades[i] = facade(obj.appearance_seed);
    for (int ty = ty0; ty <= ty1; ++ty)
      for (int tx = tx0; tx <= tx1; ++tx)
        tile_objects[static_cast<std::size_t>(ty) * tiles_x + tx].push_back(
            static_cast<std::uint16_t>(i));
  }

  // Per-object visibility accumulators.
  struct Accum {
    int count = 0;
    double x0 = 1e18, y0 = 1e18, x1 = -1e18, y1 = -1e18;
    double depth_sum = 0.0;
  };
  std::vector<Accum> accum(objects.size());

  const auto frame_noise =
      static_cast<std::uint32_t>(noise_seed ^ (noise_seed >> 32));
  const SceneParams& sp = scene.params();

  // Hostile-conditions layer (DESIGN.md §16). All branches below are
  // gated so the default (clear daylight) render is bit-identical to a
  // build without the layer.
  const SceneConditions& cond = sp.conditions;
  const double cond_luma = cond.luma_scale_at(t);
  const bool dim_on = cond_luma != 1.0;
  const bool fog_on = cond.fog_attenuation > 0.0;
  // Low light compresses chroma toward neutral as well: the detector's
  // chroma keys erode with illumination, like a real DNN's features.
  const double chroma_keep = 0.35 + 0.65 * std::min(1.0, cond_luma);

  // Rain droplet streaks: one candidate streak per 8-pixel column band,
  // activated and positioned by a pure hash of the frame noise seed, so
  // every frame gets a fresh fast-falling pattern deterministically.
  const bool rain_on = options_.rain_streak_density > 0.0;
  std::vector<std::int32_t> streak_y0;
  std::vector<std::int32_t> streak_len;
  if (rain_on) {
    streak_y0.assign(static_cast<std::size_t>(W), -1);
    streak_len.assign(static_cast<std::size_t>(W), 0);
    for (int cell = 0; cell * 8 < W; ++cell) {
      const std::uint32_t h = hash2(cell, 911, frame_noise ^ 0x9A1Du);
      if (static_cast<double>(h & 0xFFFFu) / 65536.0 >=
          options_.rain_streak_density)
        continue;
      const int x = cell * 8 + static_cast<int>((h >> 16) & 7u);
      if (x >= W) continue;
      const std::uint32_t h2v = hash2(cell, 912, frame_noise ^ 0x9A1Du);
      streak_y0[static_cast<std::size_t>(x)] =
          static_cast<std::int32_t>(h2v % static_cast<std::uint32_t>(H));
      streak_len[static_cast<std::size_t>(x)] = static_cast<std::int32_t>(
          H / 6 + static_cast<int>((h2v >> 8) % static_cast<std::uint32_t>(
                                       std::max(1, H / 4))));
    }
  }

  const auto& R = cam_to_world.m;
  GroundCells ground_cells;
  std::vector<Yuv> row_yuv(static_cast<std::size_t>(W));
  for (int py = 0; py < H; ++py) {
    const auto* tile_row =
        &tile_objects[static_cast<std::size_t>(py >> kTileShift) * tiles_x];
    // The row's share of cam_to_world * {x / f, y / f, 1}: the y column
    // times the row's y / f, and the z column (times 1, exactly itself).
    // Each pixel adds its x term in Mat3::operator*'s (a + b) + c order.
    const double dir_cam_y = camera_.to_centered({0.5, py + 0.5}).y /
                             camera_.focal();
    const Vec3 row_y{R[0][1] * dir_cam_y, R[1][1] * dir_cam_y,
                     R[2][1] * dir_cam_y};
    for (int px = 0; px < W; ++px) {
      const double dir_cam_x =
          camera_.to_centered({px + 0.5, py + 0.5}).x / camera_.focal();
      const Vec3 dir{(R[0][0] * dir_cam_x + row_y.x) + R[0][2],
                     (R[1][0] * dir_cam_x + row_y.y) + R[1][2],
                     (R[2][0] * dir_cam_x + row_y.z) + R[2][2]};

      double best_t = std::numeric_limits<double>::infinity();
      int hit_obj = -1;
      Vec3 hit_local;

      for (std::uint16_t oi : tile_row[px >> kTileShift]) {
        double th;
        Vec3 lh;
        if (ray_obb(poses[oi], dir, th, lh) && th < best_t) {
          best_t = th;
          hit_obj = oi;
          hit_local = lh;
        }
      }

      // Ground plane Y = 0 (camera is above ground: origin.y < 0).
      double ground_t = std::numeric_limits<double>::infinity();
      if (dir.y > 1e-9) ground_t = -origin.y / dir.y;

      Yuv sh;
      if (hit_obj >= 0 && best_t < ground_t) {
        const auto& obj = objects[static_cast<std::size_t>(hit_obj)];
        switch (obj.cls) {
          case ObjectClass::kCar:
            sh = shade_car(obj.appearance_seed, hit_local, obj.half);
            break;
          case ObjectClass::kPedestrian:
            sh = shade_pedestrian(obj.appearance_seed, hit_local, obj.half);
            break;
          case ObjectClass::kBuilding:
            sh = shade_building(obj.appearance_seed,
                                facades[static_cast<std::size_t>(hit_obj)],
                                hit_local, obj.half);
            break;
        }
        if (obj.cls != ObjectClass::kBuilding) {
          Accum& a = accum[static_cast<std::size_t>(hit_obj)];
          ++a.count;
          a.x0 = std::min(a.x0, static_cast<double>(px));
          a.y0 = std::min(a.y0, static_cast<double>(py));
          a.x1 = std::max(a.x1, px + 1.0);
          a.y1 = std::max(a.y1, py + 1.0);
          a.depth_sum += best_t;
        }
      } else if (ground_t < std::numeric_limits<double>::infinity()) {
        const double wx = origin.x + dir.x * ground_t;
        const double wz = origin.z + dir.z * ground_t;
        sh = shade_ground(sp, wx, wz, ground_cells);
      } else {
        sh = shade_sky(dir);
      }

      if (fog_on) {
        // Depth-dependent contrast attenuation toward the haze tone; sky
        // rays are infinitely far and fully hazed.
        const double depth =
            hit_obj >= 0 && best_t < ground_t ? best_t : ground_t;
        const double vis = std::isfinite(depth)
                               ? std::exp(-cond.fog_attenuation * depth)
                               : 0.0;
        sh.y = sh.y * vis + cond.fog_luma * (1.0 - vis);
        sh.u = sh.u * vis + 128.0 * (1.0 - vis);
        sh.v = sh.v * vis + 128.0 * (1.0 - vis);
      }
      if (dim_on) {
        sh.y *= cond_luma;
        sh.u = 128.0 + (sh.u - 128.0) * chroma_keep;
        sh.v = 128.0 + (sh.v - 128.0) * chroma_keep;
      }
      if (rain_on && streak_y0[static_cast<std::size_t>(px)] >= 0) {
        // Streaks sit on the lens: applied after fog/dimming, luma only,
        // fading along the streak. Row distance wraps so density stays
        // uniform over the frame.
        int d = py - streak_y0[static_cast<std::size_t>(px)];
        if (d < 0) d += H;
        const std::int32_t len = streak_len[static_cast<std::size_t>(px)];
        if (d < len)
          sh.y += kRainStreakLuma *
                  (1.0 - static_cast<double>(d) / static_cast<double>(len));
      }

      sh.y += (lattice(px, py, frame_noise) - 0.5) * 2.0 *
              sp.luma_noise_amplitude;
      result.frame.y.at(px, py) = clamp_u8(sh.y);
      row_yuv[static_cast<std::size_t>(px)] = sh;
    }
    // 4:2:0 chroma: average the two columns of each even row pair is
    // overkill; sample even rows/columns (co-sited top-left).
    if ((py & 1) == 0) {
      const int cy = py / 2;
      for (int cx = 0; cx < W / 2; ++cx) {
        const Yuv& s = row_yuv[static_cast<std::size_t>(cx) * 2];
        result.frame.u.at(cx, cy) = clamp_u8(s.u);
        result.frame.v.at(cx, cy) = clamp_u8(s.v);
      }
    }
  }

  for (std::size_t i = 0; i < objects.size(); ++i) {
    const Accum& a = accum[i];
    if (a.count < kMinAnnotationPixels) continue;
    RenderedObject ro;
    ro.object_index = static_cast<int>(i);
    ro.cls = objects[i].cls;
    ro.pixel_box = {a.x0, a.y0, a.x1, a.y1};
    ro.pixel_count = a.count;
    ro.depth = a.depth_sum / a.count;
    result.objects.push_back(ro);
  }
  return result;
}

}  // namespace dive::video
