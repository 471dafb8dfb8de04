#include "video/renderer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "video/image_ops.h"
#include "video/trajectory.h"

namespace dive::video {
namespace {

geom::PinholeCamera test_camera() { return {400.0, 256, 144}; }

Scene road_scene(std::uint64_t seed = 99) {
  Scene scene;
  util::Rng rng(seed);
  scene.add_buildings(-20, 200, rng);
  return scene;
}

TEST(Renderer, EmptySceneHasGroundAndSky) {
  const Renderer ren(test_camera());
  Scene empty;
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto result = ren.render(empty, 0.0, pose, 1);
  EXPECT_EQ(result.frame.width(), 256);
  EXPECT_EQ(result.frame.height(), 144);
  EXPECT_TRUE(result.objects.empty());
  // Sky at the top (bright), road at the bottom (dark asphalt).
  const double sky = region_mean(result.frame.y, 0, 0, 256, 20);
  const double road = region_mean(result.frame.y, 100, 120, 156, 144);
  EXPECT_GT(sky, 150.0);
  EXPECT_LT(road, 130.0);
}

TEST(Renderer, CarAnnotationMatchesProjection) {
  Scene scene;
  SceneObject car;
  car.cls = ObjectClass::kCar;
  car.half = {0.9, 0.75, 2.2};
  car.track.base_xz = {0.0, 15.0};
  scene.add_object(car);

  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto result = ren.render(scene, 0.0, pose, 1);
  ASSERT_EQ(result.objects.size(), 1u);
  const auto& ann = result.objects[0];
  EXPECT_EQ(ann.cls, ObjectClass::kCar);
  EXPECT_NEAR(ann.depth, 15.0, 2.5);
  // Center of the box is near the image center column.
  EXPECT_NEAR(ann.pixel_box.center().x, 128.0, 6.0);
  // The projected width of a 1.8m car at 15m with f=400 is ~48px.
  EXPECT_NEAR(ann.pixel_box.width(), 48.0, 10.0);
}

TEST(Renderer, CarChromaSignature) {
  Scene scene;
  SceneObject car;
  car.cls = ObjectClass::kCar;
  car.half = {0.9, 0.75, 2.2};
  car.track.base_xz = {0.0, 12.0};
  scene.add_object(car);

  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto r = ren.render(scene, 0.0, pose, 1);
  ASSERT_EQ(r.objects.size(), 1u);
  const auto& b = r.objects[0].pixel_box;
  const double u_mean = region_mean(
      r.frame.u, static_cast<int>(b.x0 / 2) + 1, static_cast<int>(b.y0 / 2) + 1,
      static_cast<int>(b.x1 / 2) - 1, static_cast<int>(b.y1 / 2) - 1);
  EXPECT_GT(u_mean, 145.0);  // car pushes U well above neutral
}

TEST(Renderer, OcclusionShrinksAnnotation) {
  Scene scene;
  SceneObject far_car;
  far_car.cls = ObjectClass::kCar;
  far_car.half = {0.9, 0.75, 2.2};
  far_car.track.base_xz = {0.0, 30.0};
  scene.add_object(far_car);

  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const int far_pixels = [&] {
    const auto r = ren.render(scene, 0.0, pose, 1);
    return r.objects.empty() ? 0 : r.objects[0].pixel_count;
  }();
  ASSERT_GT(far_pixels, 0);

  SceneObject near_car = far_car;
  near_car.track.base_xz = {0.0, 15.0};
  scene.add_object(near_car);
  const auto r2 = ren.render(scene, 0.0, pose, 1);
  int far_now = 0;
  for (const auto& o : r2.objects)
    if (o.object_index == 0) far_now = o.pixel_count;
  EXPECT_LT(far_now, far_pixels);  // partially or fully hidden
}

TEST(Renderer, DeterministicForSameSeed) {
  const Renderer ren(test_camera());
  const Scene scene = road_scene();
  geom::CameraPose pose;
  pose.position = {0, -1.5, 10};
  const auto a = ren.render(scene, 1.0, pose, 42);
  const auto b = ren.render(scene, 1.0, pose, 42);
  EXPECT_EQ(a.frame, b.frame);
  const auto c = ren.render(scene, 1.0, pose, 43);
  EXPECT_NE(a.frame, c.frame);  // sensor noise differs
}

TEST(Renderer, SensorNoiseToggle) {
  // Sensor noise scales with SceneParams::luma_noise_amplitude; at 0 the
  // noise seed has no effect.
  SceneParams quiet;
  quiet.luma_noise_amplitude = 0.0;
  Scene scene(quiet);
  util::Rng rng(99);
  scene.add_buildings(-20, 200, rng);
  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto a = ren.render(scene, 0.0, pose, 1);
  const auto b = ren.render(scene, 0.0, pose, 2);
  EXPECT_EQ(a.frame, b.frame);
}

TEST(Renderer, ForwardMotionExpandsImage) {
  // Content flows outward from the center when the camera advances:
  // a right-side object's box moves right.
  Scene scene;
  SceneObject car;
  car.cls = ObjectClass::kCar;
  car.half = {0.9, 0.75, 2.2};
  car.track.base_xz = {3.0, 25.0};
  scene.add_object(car);
  const Renderer ren(test_camera());
  geom::CameraPose p0, p1;
  p0.position = {0, -1.5, 0};
  p1.position = {0, -1.5, 1.0};
  const auto a = ren.render(scene, 0.0, p0, 1);
  const auto b = ren.render(scene, 0.0, p1, 1);
  ASSERT_EQ(a.objects.size(), 1u);
  ASSERT_EQ(b.objects.size(), 1u);
  EXPECT_GT(b.objects[0].pixel_box.center().x, a.objects[0].pixel_box.center().x);
  EXPECT_GT(b.objects[0].pixel_box.area(), a.objects[0].pixel_box.area());
}

TEST(Renderer, TinyObjectsNotAnnotated) {
  // A far car covers fewer than kMinAnnotationPixels pixels: it is drawn
  // (the frame differs from the empty scene's) but not annotated.
  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto car_at = [&](double z) {
    Scene scene;
    SceneObject car;
    car.cls = ObjectClass::kCar;
    car.half = {0.9, 0.75, 2.2};
    car.track.base_xz = {0.0, z};
    scene.add_object(car);
    return ren.render(scene, 0.0, pose, 1);
  };
  const auto empty = ren.render(Scene{}, 0.0, pose, 1);
  const auto drawn_pixels = [&](const RenderResult& r) {
    int n = 0;
    for (std::size_t i = 0; i < r.frame.y.data.size(); ++i)
      if (r.frame.y.data[i] != empty.frame.y.data[i]) ++n;
    return n;
  };

  const auto near = car_at(15.0);
  ASSERT_EQ(near.objects.size(), 1u);
  EXPECT_GE(near.objects[0].pixel_count, kMinAnnotationPixels);

  const auto far = car_at(150.0);
  EXPECT_GT(drawn_pixels(far), 0);
  EXPECT_LT(drawn_pixels(far), kMinAnnotationPixels);
  EXPECT_TRUE(far.objects.empty());
}

// --- Hostile-condition rendering (DESIGN.md §16) ---

TEST(RenderOptionsValidate, RejectsBadConditionKnobs) {
  RenderOptions opts;
  opts.rain_streak_density = 1.5;
  EXPECT_THROW(Renderer(test_camera(), opts), std::invalid_argument);
  opts.rain_streak_density = -0.1;
  EXPECT_THROW(Renderer(test_camera(), opts), std::invalid_argument);
}

TEST(RendererConditions, NightDimsLumaAndCompressesChroma) {
  Scene day = road_scene();
  SceneParams night_params;
  night_params.conditions.luma_scale = 0.45;
  Scene night(night_params);
  {
    util::Rng rng(99);
    night.add_buildings(-20, 200, rng);
  }

  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto rd = ren.render(day, 0.0, pose, 1);
  const auto rn = ren.render(night, 0.0, pose, 1);
  const double day_y = region_mean(rd.frame.y, 0, 0, 256, 144);
  const double night_y = region_mean(rn.frame.y, 0, 0, 256, 144);
  EXPECT_LT(night_y, 0.6 * day_y);

  // Chroma contrast collapses toward neutral at night: the spread of U
  // around 128 shrinks.
  double day_dev = 0.0, night_dev = 0.0;
  for (const std::uint8_t v : rd.frame.u.data) day_dev += std::abs(v - 128.0);
  for (const std::uint8_t v : rn.frame.u.data)
    night_dev += std::abs(v - 128.0);
  EXPECT_LT(night_dev, day_dev);
}

TEST(RendererConditions, FogHazesFarBeforeNear) {
  // Two identical cars, near and far: fog pulls the far one toward the
  // haze tone much harder than the near one.
  SceneParams fog_params;
  fog_params.conditions.fog_attenuation = 0.05;
  fog_params.conditions.fog_luma = 170.0;
  auto build = [](const SceneParams& p) {
    Scene scene(p);
    for (double z : {8.0, 45.0}) {
      SceneObject car;
      car.cls = ObjectClass::kCar;
      car.half = {0.9, 0.75, 2.2};
      car.track.base_xz = {z > 20 ? 2.5 : -2.5, z};
      scene.add_object(car);
    }
    return scene;
  };
  Scene clear = build(SceneParams{});
  Scene foggy = build(fog_params);

  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto rc = ren.render(clear, 0.0, pose, 1);
  const auto rf = ren.render(foggy, 0.0, pose, 1);
  ASSERT_EQ(rc.objects.size(), 2u);

  // Per-object |luma - fog_luma| inside the box: fog moves far objects
  // much closer to the haze tone.
  auto haze_gap = [&](const RenderResult& r, std::size_t i) {
    const auto& b = r.objects[i].pixel_box;
    return std::abs(region_mean(r.frame.y, static_cast<int>(b.x0) + 1,
                                static_cast<int>(b.y0) + 1,
                                static_cast<int>(b.x1) - 1,
                                static_cast<int>(b.y1) - 1) -
                    170.0);
  };
  std::size_t near_i = rc.objects[0].depth < rc.objects[1].depth ? 0 : 1;
  std::size_t far_i = 1 - near_i;
  if (rf.objects.size() == 2) {
    const double near_shift = haze_gap(rc, near_i) - haze_gap(rf, near_i);
    const double far_shift = haze_gap(rc, far_i) - haze_gap(rf, far_i);
    EXPECT_GT(far_shift, near_shift);
  } else {
    // The far car hazed out below the annotation threshold entirely —
    // the strongest possible form of "far hazes first".
    ASSERT_EQ(rf.objects.size(), 1u);
    EXPECT_NEAR(rf.objects[0].depth, rc.objects[near_i].depth, 1.0);
  }
}

TEST(RendererConditions, RainStreaksDeterministicPerFrameSeed) {
  RenderOptions opts;
  opts.rain_streak_density = 0.5;
  const Renderer rainy(test_camera(), opts);
  const Renderer dry(test_camera());
  Scene scene = road_scene();
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};

  const auto a = rainy.render(scene, 0.0, pose, 7);
  const auto b = rainy.render(scene, 0.0, pose, 7);
  EXPECT_EQ(a.frame.y.data, b.frame.y.data);  // same seed -> same streaks

  const auto c = rainy.render(scene, 0.0, pose, 8);
  EXPECT_NE(a.frame.y.data, c.frame.y.data);  // streaks move with the seed

  const auto d = dry.render(scene, 0.0, pose, 7);
  EXPECT_NE(a.frame.y.data, d.frame.y.data);  // streaks actually drawn
  EXPECT_EQ(a.frame.u.data, d.frame.u.data);  // luma-only artifact
}

TEST(RendererConditions, TunnelStepsGlobalLumaAtEntry) {
  SceneParams p;
  TunnelSegment seg;
  seg.enter_t = 1.0;
  seg.exit_t = 2.0;
  seg.luma_scale = 0.25;
  p.conditions.tunnels = {seg};
  Scene scene(p);

  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto before = ren.render(scene, 0.9, pose, 1);
  const auto inside = ren.render(scene, 1.1, pose, 1);
  const auto after = ren.render(scene, 2.1, pose, 1);
  const double y_before = region_mean(before.frame.y, 0, 0, 256, 144);
  const double y_inside = region_mean(inside.frame.y, 0, 0, 256, 144);
  const double y_after = region_mean(after.frame.y, 0, 0, 256, 144);
  EXPECT_LT(y_inside, 0.5 * y_before);
  EXPECT_GT(y_after, 0.9 * y_before);
}

TEST(RendererConditions, DefaultConditionsAreByteIdentical) {
  // The no-op guard: explicit default conditions must not perturb a
  // single byte relative to the implicit defaults.
  Scene a = road_scene();
  SceneParams p;
  p.conditions = SceneConditions{};
  Scene b(p);
  {
    util::Rng rng(99);
    b.add_buildings(-20, 200, rng);
  }
  const Renderer ren(test_camera());
  geom::CameraPose pose;
  pose.position = {0, -1.5, 0};
  const auto ra = ren.render(a, 0.0, pose, 3);
  const auto rb = ren.render(b, 0.0, pose, 3);
  EXPECT_EQ(ra.frame.y.data, rb.frame.y.data);
  EXPECT_EQ(ra.frame.u.data, rb.frame.u.data);
  EXPECT_EQ(ra.frame.v.data, rb.frame.v.data);
}

}  // namespace
}  // namespace dive::video
