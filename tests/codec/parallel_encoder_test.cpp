// Determinism of the parallel encode pipeline: encoded bytes must be
// bit-identical for every thread count, and the rate control's trial
// reuse must skip redundant transform passes while coding every frame
// exactly as a fresh fixed-QP encode at the chosen QP would.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/motion_search.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dive::codec {
namespace {

video::Frame synthetic_frame(int w, int h, std::uint64_t seed, int shift = 0) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const int xs = x - shift;
      double v = 60 + 0.3 * xs + 0.2 * y;
      if ((xs / 20 + y / 14) % 2 == 0) v += 55;
      v += rng.uniform(-3, 3);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x) {
      f.u.at(x, y) =
          static_cast<std::uint8_t>(120 + ((x - shift / 2) / 10) % 20);
      f.v.at(x, y) = static_cast<std::uint8_t>(130 + (y / 8) % 12);
    }
  return f;
}

/// A short sequence with real motion (shift grows per frame). Same seed
/// per index so every encoder sees identical input.
std::vector<video::Frame> moving_sequence(int w, int h, int n) {
  std::vector<video::Frame> seq;
  seq.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    seq.push_back(synthetic_frame(w, h, 700 + static_cast<std::uint64_t>(i), i * 3));
  return seq;
}

std::vector<EncodedFrame> encode_all(EncoderConfig cfg,
                                     const std::vector<video::Frame>& seq,
                                     int base_qp) {
  Encoder enc(cfg);
  std::vector<EncodedFrame> out;
  out.reserve(seq.size());
  for (const auto& f : seq) out.push_back(enc.encode(f, base_qp));
  return out;
}

TEST(ParallelEncoder, EncodeBitIdenticalAcrossThreadCounts) {
  const auto seq = moving_sequence(128, 64, 4);
  const auto serial = encode_all({.width = 128, .height = 64, .threads = 1},
                                 seq, 26);
  for (int threads : {2, 4}) {
    const auto parallel = encode_all(
        {.width = 128, .height = 64, .threads = threads}, seq, 26);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].data, serial[i].data)
          << "threads=" << threads << " frame=" << i;
      EXPECT_EQ(parallel[i].base_qp, serial[i].base_qp);
      EXPECT_DOUBLE_EQ(parallel[i].psnr_y, serial[i].psnr_y);
    }
  }
}

TEST(ParallelEncoder, MotionSearchParityWithPool) {
  const auto ref = synthetic_frame(192, 96, 42, 0);
  const auto cur = synthetic_frame(192, 96, 42, 5);
  MotionSearcher searcher;
  const MotionField serial = searcher.search_frame(cur.y, ref.y);
  util::ThreadPool pool(4);
  const MotionField parallel = searcher.search_frame(cur.y, ref.y, &pool);
  EXPECT_EQ(parallel.mvs, serial.mvs);
  EXPECT_EQ(parallel.sad, serial.sad);
}

TEST(ParallelEncoder, EncodeToTargetParityAcrossThreads) {
  const auto seq = moving_sequence(128, 64, 4);
  const std::size_t target = 900;

  std::vector<std::vector<EncodedFrame>> runs;
  for (int threads : {1, 4}) {
    Encoder enc({.width = 128, .height = 64, .threads = threads});
    std::vector<EncodedFrame> out;
    for (const auto& f : seq) out.push_back(enc.encode_to_target(f, target));
    runs.push_back(std::move(out));
  }

  const auto& baseline = runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(runs[r][i].data, baseline[i].data)
          << "run=" << r << " frame=" << i;
      EXPECT_EQ(runs[r][i].base_qp, baseline[i].base_qp);
    }
  }
}

TEST(ParallelEncoder, TrialReuseSkipsTransformPasses) {
  // Reference check: a second encoder driven in lockstep with a plain
  // fixed-QP encode at each frame's chosen QP must produce the same bytes,
  // intra and inter, while the rate-controlled encoder pays one
  // motion-compensation + DCT pass per inter frame however many QP
  // trials it runs. GoP 6 puts an intra frame mid-sequence.
  const auto seq = moving_sequence(128, 64, 10);
  for (int threads : {1, 4})
    for (bool skip : {true, false})
      for (std::size_t target : {600u, 900u, 2500u}) {
        const EncoderConfig cfg{.width = 128,
                                .height = 64,
                                .gop_length = 6,
                                .threads = threads,
                                .skip_blocks = skip};
        Encoder targeted(cfg);
        Encoder reference(cfg);
        for (std::size_t i = 0; i < seq.size(); ++i) {
          const auto got = targeted.encode_to_target(seq[i], target);
          const auto want = reference.encode(seq[i], got.base_qp);
          const RateControlStats& rc = targeted.rate_control_stats();
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " skip=" + std::to_string(skip) +
                       " target=" + std::to_string(target) +
                       " frame=" + std::to_string(i));
          ASSERT_EQ(got.type, want.type);
          ASSERT_EQ(got.data, want.data);
          EXPECT_DOUBLE_EQ(got.psnr_y, want.psnr_y);
          EXPECT_GT(rc.trials_attempted, 1);
          if (got.type == FrameType::kInter)
            EXPECT_EQ(rc.full_transform_passes, 1);
          else
            EXPECT_EQ(rc.full_transform_passes, rc.trials_encoded);
        }
      }
}

TEST(ParallelEncoder, DecoderAgreesWithParallelEncoder) {
  Encoder enc({.width = 128, .height = 64, .threads = 4});
  Decoder dec;
  const auto seq = moving_sequence(128, 64, 4);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const auto encoded = enc.encode(seq[i], 24);
    const auto decoded = dec.decode(encoded.data);
    ASSERT_EQ(decoded.frame, enc.reference()) << "frame " << i;
  }
}

}  // namespace
}  // namespace dive::codec
