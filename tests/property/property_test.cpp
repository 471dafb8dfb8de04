// Cross-module property tests: invariants that must hold over swept
// parameters and randomized inputs, not just hand-picked examples.
#include <gtest/gtest.h>

#include <cmath>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/preprocess.h"
#include "edge/evaluator.h"
#include "geom/convex_hull.h"
#include "geom/polygon.h"
#include "net/bandwidth.h"
#include "util/rng.h"
#include "video/image_ops.h"

namespace dive {
namespace {

// ---------------------------------------------------------------------
// Codec: for every QP and every search method, the decoder reproduces the
// encoder's reconstruction bit-exactly over an I+P sequence.
// ---------------------------------------------------------------------

video::Frame noisy_frame(int w, int h, std::uint64_t seed, int shift) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double v = 100 + 70 * std::sin((x - shift) * 0.12) * std::sin(y * 0.15) +
                       rng.uniform(-4, 4);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  return f;
}

struct CodecParam {
  int qp;
  codec::MotionSearchMethod method;
};

class CodecSweep : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecSweep, ReconstructionRoundTrip) {
  const auto [qp, method] = GetParam();
  codec::EncoderConfig cfg{.width = 96, .height = 48};
  cfg.search.method = method;
  codec::Encoder enc(cfg);
  codec::Decoder dec;
  for (int i = 0; i < 4; ++i) {
    const auto frame = noisy_frame(96, 48, 50, i * 2);
    const auto encoded = enc.encode(frame, qp);
    const auto decoded = dec.decode(encoded.data);
    ASSERT_EQ(decoded.frame, enc.reference())
        << "qp=" << qp << " method=" << codec::to_string(method)
        << " frame=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    QpAndMethod, CodecSweep,
    ::testing::Values(CodecParam{0, codec::MotionSearchMethod::kHex},
                      CodecParam{13, codec::MotionSearchMethod::kDia},
                      CodecParam{26, codec::MotionSearchMethod::kHex},
                      CodecParam{26, codec::MotionSearchMethod::kUmh},
                      CodecParam{26, codec::MotionSearchMethod::kEsa},
                      CodecParam{39, codec::MotionSearchMethod::kTesa},
                      CodecParam{51, codec::MotionSearchMethod::kHex}),
    [](const auto& info) {
      return std::string(codec::to_string(info.param.method)) + "_qp" +
             std::to_string(info.param.qp);
    });

// PSNR is monotone non-increasing in QP (averaged over a short sequence).
TEST(CodecProperty, PsnrMonotoneInQp) {
  double prev = 1e9;
  for (int qp = 0; qp <= 48; qp += 8) {
    codec::Encoder enc({.width = 96, .height = 48});
    double psnr = 0;
    for (int i = 0; i < 3; ++i)
      psnr += enc.encode(noisy_frame(96, 48, 60, i), qp).psnr_y;
    psnr /= 3;
    EXPECT_LE(psnr, prev + 0.5) << "qp=" << qp;
    prev = psnr;
  }
}

// ---------------------------------------------------------------------
// Net: byte integrals are additive and consistent with time_to_send.
// ---------------------------------------------------------------------

TEST(NetProperty, IntegralAdditivity) {
  net::FluctuatingBandwidth bw(10'000.0, 0.5, util::from_millis(100), 99);
  util::Rng rng(100);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = util::from_millis(rng.uniform(0, 5000));
    const auto b = a + util::from_millis(rng.uniform(0, 3000));
    const auto c = b + util::from_millis(rng.uniform(0, 3000));
    const double whole = bw.bytes_between(a, c);
    const double split = bw.bytes_between(a, b) + bw.bytes_between(b, c);
    EXPECT_NEAR(whole, split, 1e-6);
  }
}

TEST(NetProperty, TimeToSendInverseOfIntegral) {
  net::FluctuatingBandwidth bw(20'000.0, 0.4, util::from_millis(200), 7);
  util::Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const auto t0 = util::from_millis(rng.uniform(0, 4000));
    const double bytes = rng.uniform(100, 50'000);
    const auto done =
        bw.time_to_send(t0, bytes, t0 + util::from_seconds(100));
    // The integral up to the completion time equals the payload.
    EXPECT_NEAR(bw.bytes_between(t0, done), bytes, bytes * 1e-3 + 1.0);
  }
}

// ---------------------------------------------------------------------
// Geometry: hull idempotence and containment on random point clouds.
// ---------------------------------------------------------------------

TEST(GeomProperty, HullIdempotent) {
  util::Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < 40; ++i)
      pts.push_back({rng.uniform(-30, 30), rng.uniform(-30, 30)});
    const auto hull = geom::convex_hull(pts);
    const auto hull2 = geom::convex_hull(hull);
    EXPECT_NEAR(geom::polygon_area(hull), geom::polygon_area(hull2), 1e-9);
    EXPECT_EQ(hull.size(), hull2.size());
  }
}

// ---------------------------------------------------------------------
// Evaluator: AP is invariant under strictly monotone confidence
// transforms and never exceeds 1.
// ---------------------------------------------------------------------

TEST(EvaluatorProperty, ApInvariantUnderMonotoneConfidence) {
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::pair<double, bool>> scored;
    const int gt = 20;
    for (int i = 0; i < 30; ++i)
      scored.emplace_back(rng.uniform(0.0, 1.0), rng.chance(0.6));
    const double base = edge::average_precision(scored, gt);
    auto squashed = scored;
    for (auto& [conf, tp] : squashed) conf = conf * conf * 0.5;  // monotone
    EXPECT_NEAR(edge::average_precision(squashed, gt), base, 1e-12);
    EXPECT_GE(base, 0.0);
    EXPECT_LE(base, 1.0);
  }
}

TEST(EvaluatorProperty, MoreTruePositivesNeverHurt) {
  // Appending a lowest-ranked TP must not decrease AP.
  util::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::pair<double, bool>> scored;
    for (int i = 0; i < 20; ++i)
      scored.emplace_back(rng.uniform(0.2, 1.0), rng.chance(0.5));
    const int gt = 30;
    const double base = edge::average_precision(scored, gt);
    auto extended = scored;
    extended.emplace_back(0.05, true);
    EXPECT_GE(edge::average_precision(extended, gt) + 1e-12, base);
  }
}

// ---------------------------------------------------------------------
// Core: rotation removal commutes with the model — for any synthetic
// rotation, corrected vectors match the pure-translation field.
// ---------------------------------------------------------------------

class RotationSweep : public ::testing::TestWithParam<double> {};

TEST_P(RotationSweep, CorrectionRecoversTranslation) {
  const double dphi_y = GetParam();
  const geom::PinholeCamera cam(400.0, 512, 288);
  codec::MotionField field(32, 18);
  std::vector<geom::Vec2> pure(32 * 18);
  for (int row = 0; row < 18; ++row)
    for (int col = 0; col < 32; ++col) {
      const geom::Vec2 p = cam.to_centered(field.mb_center(col, row));
      const double depth = p.y > 4.0 ? 400.0 * 1.5 / p.y : 30.0;
      const geom::Vec2 trans = core::translational_mv(p, 0.9, depth);
      pure[static_cast<std::size_t>(row * 32 + col)] = trans;
      const geom::Vec2 mv =
          trans + core::rotational_mv(p, {0.0, dphi_y}, cam.focal());
      field.at(col, row) = {static_cast<int>(std::lround(mv.x * 2)),
                            static_cast<int>(std::lround(mv.y * 2))};
    }
  core::Preprocessor pre({}, 55);
  const auto result = pre.run(field, cam);
  ASSERT_TRUE(result.rotation_valid);
  double err = 0;
  int n = 0;
  for (std::size_t i = 0; i < result.mvs.size(); ++i) {
    if (pure[i].norm() < 1.0 || pure[i].norm() > 20.0) continue;
    err += (result.mvs[i].corrected - pure[i]).norm();
    ++n;
  }
  ASSERT_GT(n, 50);
  EXPECT_LT(err / n, 0.8) << "dphi_y=" << dphi_y;
}

INSTANTIATE_TEST_SUITE_P(YawSweep, RotationSweep,
                         ::testing::Values(-0.02, -0.008, -0.002, 0.002,
                                           0.008, 0.02),
                         [](const auto& info) {
                           const int milli =
                               static_cast<int>(std::lround(info.param * 1000));
                           return std::string(milli < 0 ? "neg" : "pos") +
                                  std::to_string(std::abs(milli)) + "mrad";
                         });

}  // namespace
}  // namespace dive
