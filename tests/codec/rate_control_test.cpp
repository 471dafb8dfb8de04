#include <gtest/gtest.h>

#include "codec/encoder.h"
#include "util/rng.h"

namespace dive::codec {
namespace {

video::Frame busy_frame(int w, int h, std::uint64_t seed) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (auto& px : f.y.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(30, 220));
  for (auto& px : f.u.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(110, 150));
  for (auto& px : f.v.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(110, 150));
  return f;
}

TEST(RateControl, FitsGenerousBudget) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = busy_frame(128, 64, 1);
  const auto encoded = enc.encode_to_target(frame, 20'000);
  EXPECT_LE(encoded.bytes(), 20'000u);
}

TEST(RateControl, FitsTightBudget) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = busy_frame(128, 64, 2);
  const auto encoded = enc.encode_to_target(frame, 2'000);
  EXPECT_LE(encoded.bytes(), 2'000u);
  EXPECT_GT(encoded.base_qp, 25);
}

TEST(RateControl, PicksBestQualityThatFits) {
  // With a large budget the selected QP should be near the minimum
  // reachable within the trial count.
  Encoder enc({.width = 64, .height = 32});
  const auto frame = busy_frame(64, 32, 3);
  const auto encoded = enc.encode_to_target(frame, 1'000'000);
  EXPECT_LE(encoded.base_qp, 6);
}

TEST(RateControl, ImpossibleBudgetStillEncodes) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = busy_frame(128, 64, 4);  // noise: inherently expensive
  const auto encoded = enc.encode_to_target(frame, 10);
  // Cannot fit 10 bytes, but returns the smallest stream the QP search
  // reached (within one step of the maximum).
  EXPECT_GT(encoded.bytes(), 10u);
  EXPECT_GE(encoded.base_qp, kMaxQp - 1);
}

TEST(RateControl, SuccessiveFramesTrackBudget) {
  Encoder enc({.width = 128, .height = 64});
  std::size_t total = 0;
  const std::size_t per_frame = 4'000;
  for (int i = 0; i < 6; ++i) {
    const auto frame = busy_frame(128, 64, 10 + i);
    const auto encoded = enc.encode_to_target(frame, per_frame);
    EXPECT_LE(encoded.bytes(), per_frame) << "frame " << i;
    total += encoded.bytes();
  }
  EXPECT_LE(total, per_frame * 6);
}

TEST(RateControl, OffsetsReduceSizeAtEqualBaseQp) {
  const auto frame = busy_frame(128, 64, 7);
  Encoder a({.width = 128, .height = 64});
  const auto plain = a.encode(frame, 20);
  QpOffsetMap offsets(8, 4, 16);  // everything compressed harder
  Encoder b({.width = 128, .height = 64});
  const auto squeezed = b.encode(frame, 20, &offsets);
  EXPECT_LT(squeezed.bytes(), plain.bytes());
}

}  // namespace
}  // namespace dive::codec
