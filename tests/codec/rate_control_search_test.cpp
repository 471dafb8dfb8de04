// The rate-control search at 1, 2 and 4 encoder threads (ctest label
// "tsan"): counted sizes decide every fit exactly, inter and intra,
// overshooting trials are cut only where no commit can depend on them,
// and the cut limit saturates instead of wrapping for huge targets.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codec/encoder.h"
#include "data/dataset.h"

namespace dive::codec {
namespace {

/// A rendered 192x128 clip of `spec`'s kind: real motion and texture.
data::Clip probe_clip(data::DatasetSpec spec) {
  spec.width = 192;
  spec.height = 128;
  return data::generate_clip(spec, 0);
}

/// A rendered 192x128 RobotCar-like clip.
data::Clip probe_clip() { return probe_clip(data::robotcar_like(1, 4, 4051)); }

/// Per-macroblock offsets, so the counted dQP chain is not all zeros.
QpOffsetMap probe_offsets(int mb_cols, int mb_rows) {
  QpOffsetMap offsets(mb_cols, mb_rows);
  for (int row = 0; row < mb_rows; ++row)
    for (int col = 0; col < mb_cols; ++col)
      offsets.at(col, row) = static_cast<std::int8_t>((col * 7 + row * 3) % 11 - 4);
  return offsets;
}

TEST(RateControl, CountedSizeDecidesEveryFitExactly) {
  // Inter trials are sized by counting bits, never emitted. Pin the count
  // to the emitted size to the byte: for a probe frame on a rendered
  // clip, the target is exactly what a twin encoder with the same history
  // emits at fixed QP q, or one byte less. The history ends at QP q, so
  // the search's first trial is q and must fit the first target and miss
  // the second; an off-by-one count flips one of them. The whole search
  // must follow the binary-search rule over the twins' sizes.
  //
  // After a fit, a trial whose block bits alone pass the budget is cut.
  // Only trials the rule rejects after a fit may be cut, the sweep must
  // cut some at every thread count, and the cut count must not depend on
  // the thread count.
  const data::Clip clip = probe_clip();
  const int width = clip.frames.front().image.width();
  const int height = clip.frames.front().image.height();
  const int mb_cols = width / kMacroblockSize;
  const int mb_rows = height / kMacroblockSize;
  const QpOffsetMap offsets = probe_offsets(mb_cols, mb_rows);

  std::map<std::string, int> cuts_at_one_thread;
  for (const int threads : {1, 2, 4}) {
    int cuts = 0;
    for (const bool with_offsets : {false, true})
      for (const int history : {1, 3})
        for (const int q : {16, 27, 38}) {
          const EncoderConfig cfg{
              .width = width, .height = height, .threads = threads};
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
            const std::string name = "offsets=" + std::to_string(with_offsets) +
                                     " history=" + std::to_string(history) +
                                     " q=" + std::to_string(q) +
                                     " target=" + std::to_string(target);
            SCOPED_TRACE("threads=" + std::to_string(threads) + " " + name);
            const auto enc = replay();
            const EncodedFrame got = enc->encode_to_target(probe, target, map);
            ASSERT_EQ(got.type, FrameType::kInter);

            int lo = kMinQp;
            int hi = kMaxQp;
            int qp = q;
            int chosen = -1;
            bool fitted = false;
            int misses_after_fit = 0;
            for (int iter = 0; iter < kRateIterations; ++iter) {
              const bool fits = size_at(qp) <= target;
              if (fitted && !fits) ++misses_after_fit;
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

            const RateControlStats& rc = enc->rate_control_stats();
            EXPECT_LE(rc.trials_cut, misses_after_fit);
            cuts += rc.trials_cut;
            if (threads == 1) cuts_at_one_thread[name] = rc.trials_cut;
            else EXPECT_EQ(rc.trials_cut, cuts_at_one_thread[name]);
          }
        }
    EXPECT_GT(cuts, 0) << "threads=" << threads;
  }
}

TEST(RateControl, IntraCountedSizeEqualsEmitted) {
  // Intra trials are sized by counting too, and only the committed one
  // is emitted. With every frame intra (GoP 1), pin each trial's count
  // to the bytes encode() emits at its QP: the target is exactly what a
  // twin encoder emits at the history's QP q, or one byte less, so the
  // first trial (q) must fit the first target and miss the second, and
  // the whole search must follow the binary-search rule over the twins'
  // sizes and commit the twin's bytes at the chosen QP. Intra trials
  // run as a wavefront on the pool, so the search must not depend on the
  // thread count either.
  for (const data::DatasetSpec& spec :
       {data::robotcar_like(1, 2, 4051), data::nuscenes_like(1, 2, 4052)}) {
    const data::Clip clip = probe_clip(spec);
    const video::Frame& history = clip.frames[0].image;
    const video::Frame& probe = clip.frames[1].image;
    const QpOffsetMap offsets =
        probe_offsets(probe.width() / kMacroblockSize,
                      probe.height() / kMacroblockSize);
    for (const int threads : {1, 2, 4})
      for (const bool with_offsets : {false, true})
        for (const int q : {12, 27, 42}) {
          const EncoderConfig cfg{.width = probe.width(),
                                  .height = probe.height(),
                                  .gop_length = 1,
                                  .threads = threads};
          const QpOffsetMap* map = with_offsets ? &offsets : nullptr;
          const auto replay = [&] {
            auto enc = std::make_unique<Encoder>(cfg);
            enc->encode(history, q, map);
            return enc;
          };
          std::map<int, std::vector<std::uint8_t>> emitted;
          const auto emitted_at = [&](int qp) -> const std::vector<std::uint8_t>& {
            if (!emitted.count(qp)) {
              const EncodedFrame f = replay()->encode(probe, qp, map);
              EXPECT_EQ(f.type, FrameType::kIntra);
              emitted[qp] = f.data;
            }
            return emitted[qp];
          };
          const std::size_t exact = emitted_at(q).size();
          for (const std::size_t target : {exact, exact - 1}) {
            SCOPED_TRACE(std::string(data::to_string(spec.kind)) +
                         " threads=" + std::to_string(threads) +
                         " offsets=" + std::to_string(with_offsets) +
                         " q=" + std::to_string(q) +
                         " target=" + std::to_string(target));
            const auto enc = replay();
            const EncodedFrame got = enc->encode_to_target(probe, target, map);
            ASSERT_EQ(got.type, FrameType::kIntra);

            int lo = kMinQp;
            int hi = kMaxQp;
            int qp = q;
            int chosen = -1;
            bool fitted = false;
            int trials = 0;
            for (int iter = 0; iter < kRateIterations; ++iter) {
              ++trials;
              const bool fits = emitted_at(qp).size() <= target;
              if (fits) hi = qp - 1;
              else lo = qp + 1;
              if (fits || !fitted) chosen = qp;
              fitted = fitted || fits;
              if (lo > hi) break;
              qp = (lo + hi) / 2;
            }
            EXPECT_EQ(got.base_qp <= q, target == exact);
            EXPECT_EQ(got.base_qp, chosen);
            EXPECT_EQ(got.data, emitted_at(chosen));
            const RateControlStats& rc = enc->rate_control_stats();
            EXPECT_EQ(rc.trials_attempted, trials);
            EXPECT_EQ(rc.full_transform_passes, trials);
            EXPECT_EQ(rc.trials_cut, 0);
          }
        }
  }
}

TEST(RateControl, HugeTargetsSaturateTheCutLimit) {
  // The cut limit is 8 * target_bytes bits, saturated. Were it to wrap,
  // 2^61 bytes would give a limit of 0 bits and 2^61 + 1 one of 8, and
  // every trial after the first fit would be cut as a miss. Every trial
  // fits a huge target, so the search must walk down from the history's
  // QP 30 (30, 14, 6, 2, 0) and commit QP 0 with nothing cut.
  const data::Clip clip = probe_clip();
  const video::Frame& probe = clip.frames[1].image;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const int threads : {1, 4}) {
    const EncoderConfig cfg{.width = probe.width(),
                            .height = probe.height(),
                            .threads = threads};
    Encoder twin(cfg);
    twin.encode(clip.frames[0].image, 30);
    const EncodedFrame want = twin.encode(probe, kMinQp);
    for (const std::size_t target :
         {kMax, kMax / 8, kMax / 8 + 1, kMax / 8 + 2}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " target=" + std::to_string(target));
      Encoder enc(cfg);
      enc.encode(clip.frames[0].image, 30);
      const EncodedFrame got = enc.encode_to_target(probe, target);
      ASSERT_EQ(got.type, FrameType::kInter);
      EXPECT_EQ(got.base_qp, kMinQp);
      EXPECT_EQ(got.data, want.data);
      EXPECT_EQ(enc.rate_control_stats().trials_attempted, 5);
      EXPECT_EQ(enc.rate_control_stats().trials_cut, 0);
    }
  }
}

}  // namespace
}  // namespace dive::codec
