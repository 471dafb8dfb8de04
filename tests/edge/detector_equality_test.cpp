// ChromaDetector::detect labels 4-connected components run by run. This
// suite keeps the per-pixel flood fill it replaced as a test-only oracle
// and requires exact equality with it: the same detections in the same
// order, with the same class and the same bit patterns of every box
// coordinate and confidence. Inputs are rendered RobotCar-like and
// nuScenes-like frames, raw and after an encode/decode round trip at
// three byte targets, plus synthetic masks built to stress run merging:
// a U whose arms join rows later, a spiral, blobs touching only at
// corners, one-pixel runs, a full-frame blob, blobs on every border,
// equal-confidence ties and random noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "data/dataset.h"
#include "edge/detector.h"
#include "util/rng.h"

namespace dive::edge {
namespace {

// ---- The flood-fill oracle (the detector's previous implementation) ----

struct OracleBlob {
  int x0, y0, x1, y1;  // chroma-pixel bounds, half-open
  int area = 0;
  double excess_sum = 0.0;
};

std::vector<OracleBlob> flood_fill_components(
    const std::vector<std::uint8_t>& mask,
    const std::vector<std::int16_t>& excess, int w, int h) {
  std::vector<OracleBlob> blobs;
  std::vector<std::uint8_t> visited(mask.size(), 0);
  std::vector<int> stack;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const auto idx = static_cast<std::size_t>(y * w + x);
      if (!mask[idx] || visited[idx]) continue;
      OracleBlob b{x, y, x + 1, y + 1, 0, 0.0};
      stack.clear();
      stack.push_back(static_cast<int>(idx));
      visited[idx] = 1;
      while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        const int cx = cur % w;
        const int cy = cur / w;
        ++b.area;
        b.excess_sum += excess[static_cast<std::size_t>(cur)];
        b.x0 = std::min(b.x0, cx);
        b.y0 = std::min(b.y0, cy);
        b.x1 = std::max(b.x1, cx + 1);
        b.y1 = std::max(b.y1, cy + 1);
        const int neighbors[4] = {cur - 1, cur + 1, cur - w, cur + w};
        const bool valid[4] = {cx > 0, cx < w - 1, cy > 0, cy < h - 1};
        for (int n = 0; n < 4; ++n) {
          if (!valid[n]) continue;
          const auto ni = static_cast<std::size_t>(neighbors[n]);
          if (mask[ni] && !visited[ni]) {
            visited[ni] = 1;
            stack.push_back(neighbors[n]);
          }
        }
      }
      blobs.push_back(b);
    }
  }
  return blobs;
}

DetectionList flood_fill_detect(const video::Frame& frame,
                                const DetectorConfig& config) {
  const int w = frame.u.width;
  const int h = frame.u.height;
  DetectionList detections;
  const struct {
    video::ObjectClass cls;
    const video::Plane* key;
    const video::Plane* other;
  } classes[2] = {
      {video::ObjectClass::kCar, &frame.u, &frame.v},
      {video::ObjectClass::kPedestrian, &frame.v, &frame.u},
  };
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(w) * h);
  std::vector<std::int16_t> excess(static_cast<std::size_t>(w) * h);
  for (const auto& spec : classes) {
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const std::size_t idx = static_cast<std::size_t>(y) * w + x;
        const int e = static_cast<int>(spec.key->at(x, y)) - 128;
        mask[idx] = e > config.chroma_excess_threshold &&
                            static_cast<int>(spec.other->at(x, y)) <
                                config.cross_suppression
                        ? 1
                        : 0;
        excess[idx] = static_cast<std::int16_t>(e);
      }
    for (const OracleBlob& b : flood_fill_components(mask, excess, w, h)) {
      if (b.area < config.min_area_chroma_px) continue;
      Detection d;
      d.cls = spec.cls;
      d.box = {2.0 * b.x0, 2.0 * b.y0, 2.0 * b.x1, 2.0 * b.y1};
      const double mean_excess = b.excess_sum / b.area;
      d.confidence = std::clamp(
          (mean_excess - config.chroma_excess_threshold) /
              (config.confidence_scale - config.chroma_excess_threshold),
          0.05, 1.0);
      detections.push_back(d);
    }
  }
  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              return a.confidence > b.confidence;
            });
  return detections;
}

// ---- Comparison ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

::testing::AssertionResult same_detections(const DetectionList& got,
                                           const DetectionList& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " detections, oracle has " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Detection& g = got[i];
    const Detection& w = want[i];
    if (g.cls != w.cls || bits(g.box.x0) != bits(w.box.x0) ||
        bits(g.box.y0) != bits(w.box.y0) ||
        bits(g.box.x1) != bits(w.box.x1) ||
        bits(g.box.y1) != bits(w.box.y1) ||
        bits(g.confidence) != bits(w.confidence))
      return ::testing::AssertionFailure()
             << "detection " << i << ": class " << static_cast<int>(g.cls)
             << " box (" << g.box.x0 << "," << g.box.y0 << ")-(" << g.box.x1
             << "," << g.box.y1 << ") conf " << g.confidence
             << " vs oracle class " << static_cast<int>(w.cls) << " box ("
             << w.box.x0 << "," << w.box.y0 << ")-(" << w.box.x1 << ","
             << w.box.y1 << ") conf " << w.confidence;
  }
  return ::testing::AssertionSuccess();
}

/// The default detector and one that keeps every blob, so masks whose
/// pieces fall under the area floor still compare every component.
const std::vector<DetectorConfig>& configs() {
  static const std::vector<DetectorConfig> c = [] {
    DetectorConfig keep_all;
    keep_all.min_area_chroma_px = 1;
    return std::vector<DetectorConfig>{DetectorConfig{}, keep_all};
  }();
  return c;
}

::testing::AssertionResult matches_oracle(const video::Frame& frame) {
  for (const DetectorConfig& config : configs()) {
    auto result = same_detections(ChromaDetector(config).detect(frame),
                                  flood_fill_detect(frame, config));
    if (!result)
      return result << " (min_area " << config.min_area_chroma_px << ")";
  }
  return ::testing::AssertionSuccess();
}

// ---- Rendered frames ----

void check_clip(const data::DatasetSpec& spec) {
  const data::Clip clip = data::generate_clip(spec, 0);
  int detections = 0;
  for (const auto& rec : clip.frames) {
    ASSERT_TRUE(matches_oracle(rec.image)) << "raw frame";
    detections +=
        static_cast<int>(ChromaDetector().detect(rec.image).size());
  }
  EXPECT_GT(detections, 0) << "the clip exercises no blob";
  for (const std::size_t target : {1500U, 5000U, 16000U}) {
    codec::Encoder enc({.width = spec.width, .height = spec.height,
                        .threads = 1});
    codec::Decoder dec;
    for (const auto& rec : clip.frames) {
      const auto encoded = enc.encode_to_target(rec.image, target);
      const video::Frame decoded = dec.decode(encoded.data).frame;
      ASSERT_TRUE(matches_oracle(decoded)) << "decoded at " << target
                                           << " bytes";
    }
  }
}

TEST(DetectorEquality, RobotCarRawAndDecoded) {
  check_clip(data::robotcar_like(1, 10));
}

TEST(DetectorEquality, NuScenesRawAndDecoded) {
  check_clip(data::nuscenes_like(1, 10));
}

// ---- Synthetic masks ----

/// A frame whose chroma planes (w x h) hold `rows`: 'c' is a car pixel,
/// 'p' a pedestrian pixel, 'x' a car-keyed pixel that cross suppression
/// rejects, anything else neutral. Key excess varies with position
/// unless `flat`, so confidences differ between blobs.
video::Frame mask_frame(const std::vector<std::string>& rows,
                        bool flat = false) {
  const int h = static_cast<int>(rows.size());
  const int w = static_cast<int>(rows[0].size());
  video::Frame f(2 * w, 2 * h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const auto key = static_cast<std::uint8_t>(
          128 + (flat ? 40 : 19 + (7 * x + 3 * y) % 45));
      const char ch = rows[static_cast<std::size_t>(y)]
                          [static_cast<std::size_t>(x)];
      if (ch == 'c') {
        f.u.at(x, y) = key;
        f.v.at(x, y) = 120;
      } else if (ch == 'p') {
        f.v.at(x, y) = key;
        f.u.at(x, y) = 120;
      } else if (ch == 'x') {
        f.u.at(x, y) = key;
        f.v.at(x, y) = 200;
      }
    }
  return f;
}

TEST(DetectorEquality, UShapeMergesRowsLater) {
  // Two arms are separate runs for many rows and join only at the
  // bottom; a second U nests inside with its own late join, and an
  // upside-down U splits instead.
  EXPECT_TRUE(matches_oracle(mask_frame({
      "cc........cc..pppppppp",
      "cc..cc..c.cc..pppppppp",
      "cc..cc..c.cc..pp....pp",
      "cc..cccccccc..pp....pp",
      "cc........cc..pp....pp",
      "cccccccccccc..pp....pp",
      "..............pp....pp",
  })));
}

TEST(DetectorEquality, Spiral) {
  EXPECT_TRUE(matches_oracle(mask_frame({
      "cccccccccccc",
      "...........c",
      ".ccccccccc.c",
      ".c.......c.c",
      ".c.ccccc.c.c",
      ".c.c...c.c.c",
      ".c.c.c.c.c.c",
      ".c.c.ccc.c.c",
      ".c.c.....c.c",
      ".c.ccccccc.c",
      ".c.........c",
      ".ccccccccccc",
  })));
}

TEST(DetectorEquality, DiagonalTouchesStayApart) {
  EXPECT_TRUE(matches_oracle(mask_frame({
      "c.c.c.c.p.p.",
      ".c.c.c.c.p.p",
      "c.c.c.c.p.p.",
      "cc..cc..pp..",
      "..cc..cc..pp",
      "cc..cc..pp..",
  })));
}

TEST(DetectorEquality, OnePixelRuns) {
  EXPECT_TRUE(matches_oracle(mask_frame({
      "c.c.c.c.c.c.",
      "c...c...c..c",
      "c.x.c.x.c.c.",
      "c...c...cc..",
      ".p.p.p.p.p.p",
      ".p...p...p.p",
  })));
}

TEST(DetectorEquality, FullFrameBlob) {
  const std::vector<std::string> full(24, std::string(32, 'c'));
  EXPECT_TRUE(matches_oracle(mask_frame(full)));
  EXPECT_TRUE(matches_oracle(mask_frame(full, true)));
}

TEST(DetectorEquality, BlobsOnEveryBorder) {
  EXPECT_TRUE(matches_oracle(mask_frame({
      "ccc....pppp...cc",
      "c.............cc",
      "c..............c",
      "...............p",
      "pp..............",
      "pp.............c",
      "p..............c",
      "cc...pppp...cccc",
  })));
}

TEST(DetectorEquality, EqualConfidenceTiesKeepOrder) {
  // Uniform excess: every blob has the same confidence, so the order is
  // the unstable sort's treatment of the blob sequence itself.
  EXPECT_TRUE(matches_oracle(mask_frame(
      {
          "ccc.ppp.ccc.ppp.ccc.",
          "ccc.ppp.ccc.ppp.ccc.",
          "....................",
          "pp.cc.pp.cc.pp.cc.pp",
          "pp.cc.pp.cc.pp.cc.pp",
          "....................",
          "cccc.pppp.cccc.pppp.",
          "cccc.pppp.cccc.pppp.",
      },
      true)));
}

TEST(DetectorEquality, RandomNoise) {
  // Dense random chroma: hits of both classes, cross suppression and
  // irregular components of every shape.
  util::Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    video::Frame f(2 * 48, 2 * 40);
    const int spread = 30 + 10 * (trial % 6);
    for (std::size_t i = 0; i < f.u.data.size(); ++i) {
      f.u.data[i] =
          static_cast<std::uint8_t>(rng.uniform_int(128 - spread, 128 + spread));
      f.v.data[i] =
          static_cast<std::uint8_t>(rng.uniform_int(128 - spread, 128 + spread));
    }
    ASSERT_TRUE(matches_oracle(f)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dive::edge
