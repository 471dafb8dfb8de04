// Scene-change detection (kSceneChangeLumaDelta): a
// global mean-luma step between the incoming frame and the reference —
// tunnel entry/exit, headlight loss, exposure slam — forces an I-frame
// mid-GoP, fully resetting SKIP and temporal carry. The forced intra
// must be byte-identical to a cold-start encode of the same frame, and
// the decoder must track across the cut without drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "util/rng.h"

namespace dive::codec {
namespace {

/// Textured frame with a controllable mean luma (flat frames would make
/// every macroblock SKIP-eligible and prove nothing).
video::Frame lit_frame(int w, int h, double mean, std::uint64_t seed) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      double v = mean + 18.0 * ((x / 16 + y / 12) % 2) - 9.0 +
                 rng.uniform(-3, 3);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  return f;
}

TEST(SceneChange, GlobalLumaStepForcesIntra) {
  Encoder enc({.width = 128, .height = 64});
  EXPECT_EQ(enc.encode(lit_frame(128, 64, 140, 1), 26).type,
            FrameType::kIntra);  // first frame: GoP start, not a cut
  EXPECT_EQ(enc.scene_change_count(), 0);
  EXPECT_EQ(enc.encode(lit_frame(128, 64, 140, 2), 26).type,
            FrameType::kInter);
  // Tunnel entry: mean luma drops 140 -> 50 (delta 90 >> threshold 24).
  EXPECT_EQ(enc.encode(lit_frame(128, 64, 50, 3), 26).type,
            FrameType::kIntra);
  EXPECT_EQ(enc.scene_change_count(), 1);
  // Inside the tunnel: stable luma, back to inter coding.
  EXPECT_EQ(enc.encode(lit_frame(128, 64, 50, 4), 26).type,
            FrameType::kInter);
  // Tunnel exit: step back up, second cut.
  EXPECT_EQ(enc.encode(lit_frame(128, 64, 140, 5), 26).type,
            FrameType::kIntra);
  EXPECT_EQ(enc.scene_change_count(), 2);
}

TEST(SceneChange, SubThresholdStepStaysInter) {
  Encoder enc({.width = 128, .height = 64});
  (void)enc.encode(lit_frame(128, 64, 120, 1), 26);
  // 15 DN is a lighting drift, not a cut (threshold 24).
  EXPECT_EQ(enc.encode(lit_frame(128, 64, 135, 2), 26).type,
            FrameType::kInter);
  EXPECT_EQ(enc.scene_change_count(), 0);
}

/// `f` with every luma sample raised by `lift` (no sample may clip).
video::Frame lifted(const video::Frame& f, int lift) {
  video::Frame out = f;
  for (std::uint8_t& v : out.y.data) {
    EXPECT_LE(v + lift, 255);
    v = static_cast<std::uint8_t>(v + lift);
  }
  return out;
}

TEST(SceneChange, ThresholdIsConfigurable) {
  // The cut fires when the mean-luma step against the reconstructed
  // reference exceeds kSceneChangeLumaDelta (24 DN), strictly. 128x64 has
  // a power-of-two sample count, so both means and the step are exact.
  static_assert(kSceneChangeLumaDelta == 24.0);
  Encoder enc({.width = 128, .height = 64});
  (void)enc.encode(lit_frame(128, 64, 120, 1), 26);
  EXPECT_EQ(enc.encode(lifted(enc.reference(), 24), 26).type,
            FrameType::kInter);
  EXPECT_EQ(enc.scene_change_count(), 0);
  EXPECT_EQ(enc.encode(lifted(enc.reference(), 25), 26).type,
            FrameType::kIntra);
  EXPECT_EQ(enc.scene_change_count(), 1);
}

TEST(SceneChange, ForcedIntraIdenticalToColdStart) {
  // The forced I-frame must carry no history: its bytes equal a fresh
  // encoder's encode of the same frame. This is the "SKIP and temporal
  // carry fully reset" guarantee in its strongest form.
  const video::Frame pre = lit_frame(128, 64, 150, 10);
  const video::Frame cut = lit_frame(128, 64, 40, 11);

  Encoder warm({.width = 128, .height = 64});
  (void)warm.encode(pre, 26);
  (void)warm.encode(lit_frame(128, 64, 150, 12), 26);
  const EncodedFrame forced = warm.encode(cut, 26);
  ASSERT_EQ(forced.type, FrameType::kIntra);

  Encoder cold({.width = 128, .height = 64});
  const EncodedFrame fresh = cold.encode(cut, 26);
  ASSERT_EQ(fresh.type, FrameType::kIntra);

  EXPECT_EQ(forced.data, fresh.data);
  EXPECT_DOUBLE_EQ(forced.psnr_y, fresh.psnr_y);
  EXPECT_TRUE(forced.motion.empty());  // no motion field on an I-frame
  EXPECT_EQ(forced.skipped_mbs, 0);
}

TEST(SceneChange, DecoderTracksAcrossCutAndMatchesColdDecode) {
  Encoder enc({.width = 128, .height = 64});
  Decoder streaming;
  std::vector<video::Frame> seq = {
      lit_frame(128, 64, 150, 20), lit_frame(128, 64, 150, 21),
      lit_frame(128, 64, 45, 22),  // cut
      lit_frame(128, 64, 45, 23),
  };
  std::vector<EncodedFrame> encoded;
  for (const video::Frame& f : seq) {
    encoded.push_back(enc.encode(f, 26));
    const auto dec = streaming.decode(encoded.back().data);
    ASSERT_EQ(dec.frame, enc.reference());
  }
  ASSERT_EQ(encoded[2].type, FrameType::kIntra);

  // A decoder that joins AT the cut (cold start) reconstructs the cut
  // frame and everything after it identically to the streaming decoder.
  Decoder cold;
  Encoder replay({.width = 128, .height = 64});
  const auto cut_cold = cold.decode(encoded[2].data);
  (void)replay.encode(seq[2], 26);
  EXPECT_EQ(cut_cold.frame, replay.reference());
  const auto post_cold = cold.decode(encoded[3].data);
  (void)replay.encode(seq[3], 26);
  EXPECT_EQ(post_cold.frame, replay.reference());
}

TEST(SceneChange, SkipCodingResumesAgainstNewReference) {
  // After the cut, SKIP coding restarts against the post-cut reference:
  // a static post-cut frame skips heavily and still decodes exactly.
  Encoder enc({.width = 128, .height = 64});
  Decoder dec;
  (void)enc.encode(lit_frame(128, 64, 150, 30), 26);
  const EncodedFrame cut = enc.encode(lit_frame(128, 64, 45, 31), 26);
  ASSERT_EQ(cut.type, FrameType::kIntra);
  (void)dec.decode(cut.data);

  const EncodedFrame post = enc.encode(lit_frame(128, 64, 45, 31), 26);
  EXPECT_EQ(post.type, FrameType::kInter);
  EXPECT_GT(post.skipped_mbs, 0);  // identical frame: mostly SKIP
  EXPECT_EQ(dec.decode(post.data).frame, enc.reference());
}

}  // namespace
}  // namespace dive::codec
