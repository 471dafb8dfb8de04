#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "codec/encoder.h"
#include "data/dataset.h"
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

TEST(RateControl, CountedSizeDecidesEveryFitExactly) {
  // Inter trials are sized by counting bits, never emitted. Pin the count
  // to the emitted size to the byte: for a probe frame on a rendered
  // clip, the target is exactly what a twin encoder with the same history
  // emits at fixed QP q, or one byte less. The history ends at QP q, so
  // the search's first trial is q and must fit the first target and miss
  // the second; an off-by-one count flips one of them. The whole search
  // must follow the binary-search rule over the twins' sizes.
  data::DatasetSpec spec = data::robotcar_like(1, 4, 4051);
  spec.width = 192;
  spec.height = 128;
  const data::Clip clip = data::generate_clip(spec, 0);
  const int mb_cols = spec.width / kMacroblockSize;
  const int mb_rows = spec.height / kMacroblockSize;
  // Per-macroblock offsets, so the counted dQP chain is not all zeros.
  QpOffsetMap offsets(mb_cols, mb_rows);
  for (int row = 0; row < mb_rows; ++row)
    for (int col = 0; col < mb_cols; ++col)
      offsets.at(col, row) = static_cast<std::int8_t>((col * 7 + row * 3) % 11 - 4);

  for (const int threads : {1, 2, 4})
    for (const bool with_offsets : {false, true})
      for (const int history : {1, 3})
        for (const int q : {16, 27, 38}) {
          const EncoderConfig cfg{
              .width = spec.width, .height = spec.height, .threads = threads};
          const QpOffsetMap* map = with_offsets ? &offsets : nullptr;
          const auto replay = [&] {
            auto enc = std::make_unique<Encoder>(cfg);
            for (int f = 0; f < history; ++f)
              enc->encode(clip.frames[static_cast<std::size_t>(f)].image, q, map);
            return enc;
          };
          const video::Frame& probe =
              clip.frames[static_cast<std::size_t>(history)].image;
          std::map<int, std::size_t> sizes;
          const auto size_at = [&](int qp) {
            if (!sizes.count(qp)) sizes[qp] = replay()->encode(probe, qp, map).bytes();
            return sizes[qp];
          };
          const std::size_t exact = size_at(q);
          for (const std::size_t target : {exact, exact - 1}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " offsets=" + std::to_string(with_offsets) +
                         " history=" + std::to_string(history) +
                         " q=" + std::to_string(q) +
                         " target=" + std::to_string(target));
            const auto enc = replay();
            const EncodedFrame got = enc->encode_to_target(probe, target, map);
            ASSERT_EQ(got.type, FrameType::kInter);

            int lo = kMinQp;
            int hi = kMaxQp;
            int qp = q;
            int chosen = -1;
            bool fitted = false;
            for (int iter = 0; iter < cfg.rate_iterations; ++iter) {
              const bool fits = size_at(qp) <= target;
              if (fits) hi = qp - 1;
              else lo = qp + 1;
              if (fits || !fitted) chosen = qp;
              fitted = fitted || fits;
              if (lo > hi) break;
              qp = (lo + hi) / 2;
            }
            EXPECT_EQ(got.base_qp <= q, target == exact);
            EXPECT_EQ(got.base_qp, chosen);
            EXPECT_EQ(got.bytes(), size_at(chosen));
          }
        }
}

}  // namespace
}  // namespace dive::codec
