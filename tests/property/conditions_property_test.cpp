// Annotation invariants under every hostile condition (DESIGN.md §16):
// whatever the weather does to the pixels, the renderer's ground truth
// must stay well-formed — boxes inside the frame, every annotation above
// the visibility floor, and occluded pixels never double-counted.
#include <gtest/gtest.h>

#include <string>

#include "data/dataset.h"
#include "harness/scenario_fuzzer.h"

namespace dive {
namespace {

class ConditionSweep : public ::testing::TestWithParam<harness::Condition> {};

TEST_P(ConditionSweep, AnnotationsWellFormed) {
  data::DatasetSpec spec;
  spec.kind = data::DatasetKind::kNuScenesLike;
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  spec.clip_count = 1;
  spec.frames_per_clip = 24;
  spec.seed = 515;
  harness::apply_condition(spec, GetParam());

  const data::Clip clip = data::generate_clip(spec, 0);
  ASSERT_FALSE(clip.frames.empty());

  for (const data::FrameRecord& rec : clip.frames) {
    const int W = rec.image.width();
    const int H = rec.image.height();
    long visible_total = 0;
    for (const video::RenderedObject& obj : rec.objects) {
      // Boxes stay inside the frame under every condition.
      EXPECT_GE(obj.pixel_box.x0, 0.0);
      EXPECT_GE(obj.pixel_box.y0, 0.0);
      EXPECT_LE(obj.pixel_box.x1, static_cast<double>(W));
      EXPECT_LE(obj.pixel_box.y1, static_cast<double>(H));
      EXPECT_LT(obj.pixel_box.x0, obj.pixel_box.x1);
      EXPECT_LT(obj.pixel_box.y0, obj.pixel_box.y1);

      // Every annotation clears the visibility floor.
      EXPECT_GE(obj.pixel_count, video::kMinAnnotationPixels);

      // Visible pixels fit inside the tight box: occluded pixels are not
      // counted as visible.
      const double area = obj.pixel_box.width() * obj.pixel_box.height();
      EXPECT_LE(obj.pixel_count, static_cast<long>(area + 0.5));

      EXPECT_GT(obj.depth, 0.0);
      visible_total += obj.pixel_count;
    }
    // Each pixel is attributed to at most one (the nearest) object: the
    // per-frame sum of visible pixels can never exceed the pixel budget.
    EXPECT_LE(visible_total, static_cast<long>(W) * H);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, ConditionSweep,
    ::testing::Values(harness::Condition::kClear, harness::Condition::kNight,
                      harness::Condition::kFog, harness::Condition::kRain,
                      harness::Condition::kVibration,
                      harness::Condition::kTunnel, harness::Condition::kCrowd),
    [](const auto& info) { return std::string(to_string(info.param)); });

}  // namespace
}  // namespace dive
