// Encoder/decoder agreement: decoding must reproduce the encoder's
// reconstruction bit-exactly, for every frame type, QP, offset map, and
// motion-search method.
#include <gtest/gtest.h>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "util/rng.h"
#include "video/image_ops.h"

namespace dive::codec {
namespace {

/// Structured synthetic frame: gradient + blocks + noise, so the codec
/// has both smooth and detailed content.
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
      f.u.at(x, y) = static_cast<std::uint8_t>(120 + ((x - shift / 2) / 10) % 20);
      f.v.at(x, y) = static_cast<std::uint8_t>(130 + (y / 8) % 12);
    }
  return f;
}

TEST(Codec, IntraRoundTripExactRecon) {
  Encoder enc({.width = 128, .height = 64});
  Decoder dec;
  const auto frame = synthetic_frame(128, 64, 1);
  const auto encoded = enc.encode(frame, 20);
  EXPECT_EQ(encoded.type, FrameType::kIntra);
  const auto decoded = dec.decode(encoded.data);
  EXPECT_EQ(decoded.frame, enc.reference());
  EXPECT_EQ(decoded.base_qp, 20);
}

TEST(Codec, InterSequenceStaysInSync) {
  Encoder enc({.width = 128, .height = 64});
  Decoder dec;
  for (int i = 0; i < 8; ++i) {
    const auto frame = synthetic_frame(128, 64, 100 + i, i * 3);
    const auto encoded = enc.encode(frame, 26);
    const auto decoded = dec.decode(encoded.data);
    ASSERT_EQ(decoded.frame, enc.reference()) << "frame " << i;
    if (i > 0) {
      EXPECT_EQ(decoded.type, FrameType::kInter);
    }
  }
}

TEST(Codec, SkipBlocksRoundTripAndFireOnStaticContent) {
  // A static scene: nearly every inter macroblock should be coded as a
  // one-bit SKIP, the stream must shrink accordingly, and the decoder's
  // reference-copy reconstruction must track the encoder exactly.
  Encoder skip_enc({.width = 128, .height = 64, .skip_blocks = true});
  Encoder nosk_enc({.width = 128, .height = 64, .skip_blocks = false});
  Decoder dec;
  const auto frame = synthetic_frame(128, 64, 7);
  // Frame 0 (intra) seeds encoder and decoder references alike.
  (void)dec.decode(skip_enc.encode(frame, 30).data);
  (void)nosk_enc.encode(frame, 30);
  // Encode the SAME frame again: the reference now matches the source at
  // zero MV, so the skip threshold fires everywhere.
  const auto with_skip = skip_enc.encode(frame, 30);
  const auto without = nosk_enc.encode(frame, 30);
  EXPECT_EQ(with_skip.type, FrameType::kInter);
  // The reference is the QP-30 intra RECONSTRUCTION, not the source, so
  // demand most (not all) macroblocks under the SAD threshold.
  const int mb_count = (128 / 16) * (64 / 16);
  EXPECT_GT(with_skip.skipped_mbs, mb_count / 2);
  const auto decoded = dec.decode(with_skip.data);
  EXPECT_EQ(decoded.frame, skip_enc.reference());
  // ~1 bit/MB + header vs. whatever the residual path costs.
  EXPECT_LE(with_skip.bytes(), without.bytes());
  const auto& stats = skip_enc.skip_stats();
  EXPECT_GT(stats.skipped_mbs, 0);
  EXPECT_GT(stats.inter_mbs, 0);
}

TEST(Codec, SkipDisabledStreamsStillDecode) {
  // skip_blocks=false only disables FORCED skips; naturally skippable
  // macroblocks (MV == predictor, no residual) still use the skip bit,
  // so one decoder serves both encoder configurations.
  Encoder enc({.width = 128, .height = 64, .skip_blocks = false});
  Decoder dec;
  for (int i = 0; i < 4; ++i) {
    const auto frame = synthetic_frame(128, 64, 300 + i, i * 2);
    const auto encoded = enc.encode(frame, 28);
    const auto decoded = dec.decode(encoded.data);
    ASSERT_EQ(decoded.frame, enc.reference()) << "frame " << i;
  }
}

TEST(Codec, SkipCarriesPredictedMotionThroughDecoder) {
  // A globally panning scene: once the left-neighbor predictor locks
  // onto the pan, low-residual macroblocks skip WITH the predicted
  // (nonzero) motion — the decoded motion field must equal the coded
  // field the encoder reports, including skip macroblocks.
  Encoder enc({.width = 128, .height = 64, .skip_blocks = true});
  Decoder dec;
  for (int i = 0; i < 4; ++i) {
    const auto frame = synthetic_frame(128, 64, 9, i * 4);  // same texture
    const auto encoded = enc.encode(frame, 30);
    const auto decoded = dec.decode(encoded.data);
    ASSERT_EQ(decoded.frame, enc.reference()) << "frame " << i;
    if (encoded.type == FrameType::kInter) {
      ASSERT_EQ(decoded.motion.mvs, encoded.motion.mvs) << "frame " << i;
      EXPECT_GT(decoded.motion.nonzero_ratio(), 0.5) << "frame " << i;
    }
  }
  EXPECT_GT(enc.skip_stats().skipped_mbs, 0);
}

TEST(Codec, LowQpHighFidelity) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = synthetic_frame(128, 64, 2);
  const auto encoded = enc.encode(frame, 2);
  EXPECT_GT(encoded.psnr_y, 46.0);
}

TEST(Codec, QpControlsRateAndQuality) {
  const auto frame = synthetic_frame(128, 64, 3);
  std::size_t prev_bytes = SIZE_MAX;
  double prev_psnr = 1e9;
  for (int qp : {8, 20, 32, 44}) {
    Encoder enc({.width = 128, .height = 64});
    const auto encoded = enc.encode(frame, qp);
    EXPECT_LT(encoded.bytes(), prev_bytes) << "qp=" << qp;
    EXPECT_LT(encoded.psnr_y, prev_psnr + 0.2) << "qp=" << qp;
    prev_bytes = encoded.bytes();
    prev_psnr = encoded.psnr_y;
  }
}

TEST(Codec, QpOffsetMapDegradesMarkedBlocks) {
  const int w = 128, h = 64;
  const auto frame = synthetic_frame(w, h, 4);
  // Left half offset 0, right half +24.
  QpOffsetMap offsets(w / 16, h / 16, 0);
  for (int row = 0; row < h / 16; ++row)
    for (int col = w / 32; col < w / 16; ++col) offsets.at(col, row) = 24;

  Encoder enc({.width = w, .height = h});
  const auto encoded = enc.encode(frame, 16, &offsets);
  Decoder dec;
  const auto decoded = dec.decode(encoded.data);

  auto half_mse = [&](int x0, int x1) {
    double acc = 0;
    int n = 0;
    for (int y = 0; y < h; ++y)
      for (int x = x0; x < x1; ++x) {
        const double d = static_cast<double>(decoded.frame.y.at(x, y)) -
                         frame.y.at(x, y);
        acc += d * d;
        ++n;
      }
    return acc / n;
  };
  EXPECT_LT(half_mse(0, w / 2) * 2.5, half_mse(w / 2, w));
}

TEST(Codec, SkipBlocksOnStaticContent) {
  Encoder enc({.width = 128, .height = 64});
  const auto frame = synthetic_frame(128, 64, 5);
  enc.encode(frame, 24);
  // Encoding the identical frame again: almost everything skips.
  const auto encoded = enc.encode(frame, 24);
  EXPECT_EQ(encoded.type, FrameType::kInter);
  EXPECT_LT(encoded.bytes(), 300u);
}

TEST(Codec, MotionCompensationShrinksInterFrames) {
  Encoder enc({.width = 128, .height = 64});
  enc.encode(synthetic_frame(128, 64, 6, 0), 24);
  const auto inter = enc.encode(synthetic_frame(128, 64, 6, 4), 24);

  Encoder intra_only({.width = 128, .height = 64});
  const auto intra = intra_only.encode(synthetic_frame(128, 64, 6, 4), 24);
  EXPECT_LT(inter.bytes() * 2, intra.bytes());
}

TEST(Codec, GopInsertsPeriodicIntra) {
  EncoderConfig cfg{.width = 64, .height = 32};
  cfg.gop_length = 4;
  Encoder enc(cfg);
  std::vector<FrameType> types;
  for (int i = 0; i < 9; ++i)
    types.push_back(enc.encode(synthetic_frame(64, 32, 7, i), 28).type);
  EXPECT_EQ(types[0], FrameType::kIntra);
  EXPECT_EQ(types[4], FrameType::kIntra);
  EXPECT_EQ(types[8], FrameType::kIntra);
  EXPECT_EQ(types[1], FrameType::kInter);
  EXPECT_EQ(types[5], FrameType::kInter);
}

TEST(Codec, RequestIntraForcesStandalone) {
  Encoder enc({.width = 64, .height = 32});
  enc.encode(synthetic_frame(64, 32, 8, 0), 28);
  enc.request_intra();
  const auto forced = enc.encode(synthetic_frame(64, 32, 8, 2), 28);
  EXPECT_EQ(forced.type, FrameType::kIntra);
  // A fresh decoder can pick up the stream from this frame.
  Decoder dec;
  EXPECT_NO_THROW(dec.decode(forced.data));
}

TEST(Codec, DecoderRejectsGarbage) {
  Decoder dec;
  const std::vector<std::uint8_t> garbage = {0xFF, 0x00, 0x12, 0x34};
  EXPECT_THROW(dec.decode(garbage), BitstreamError);
}

TEST(Codec, DecoderRejectsInterWithoutReference) {
  Encoder enc({.width = 64, .height = 32});
  enc.encode(synthetic_frame(64, 32, 9, 0), 28);
  const auto inter = enc.encode(synthetic_frame(64, 32, 9, 1), 28);
  Decoder fresh;
  EXPECT_THROW(fresh.decode(inter.data), BitstreamError);
}

TEST(Codec, RejectsBadDimensions) {
  EXPECT_THROW(Encoder({.width = 100, .height = 64}), std::invalid_argument);
  EXPECT_THROW(Encoder({.width = 0, .height = 64}), std::invalid_argument);
  Encoder ok({.width = 64, .height = 32});
  EXPECT_THROW(ok.encode(synthetic_frame(128, 64, 1), 20),
               std::invalid_argument);
}

TEST(Codec, MotionFieldExportedOnInterFrames) {
  Encoder enc({.width = 128, .height = 64});
  enc.encode(synthetic_frame(128, 64, 10, 0), 24);
  const auto inter = enc.encode(synthetic_frame(128, 64, 10, 5), 24);
  ASSERT_FALSE(inter.motion.empty());
  EXPECT_EQ(inter.motion.mb_cols, 8);
  EXPECT_EQ(inter.motion.mb_rows, 4);
  // The dominant motion is the +5px horizontal shift (half-pel 10).
  int votes = 0;
  for (const auto& mv : inter.motion.mvs)
    if (std::abs(mv.dx - 10) <= 1) ++votes;
  EXPECT_GT(votes, static_cast<int>(inter.motion.size()) / 2);
}

TEST(Codec, DecoderMotionMatchesEncoder) {
  Encoder enc({.width = 128, .height = 64});
  Decoder dec;
  dec.decode(enc.encode(synthetic_frame(128, 64, 11, 0), 24).data);
  const auto encoded = enc.encode(synthetic_frame(128, 64, 11, 3), 24);
  const auto decoded = dec.decode(encoded.data);
  ASSERT_EQ(decoded.motion.size(), encoded.motion.size());
  for (std::size_t i = 0; i < encoded.motion.size(); ++i) {
    // Skip macroblocks read back as zero (the encoder's skip MBs).
    if (decoded.motion.mvs[i].is_zero()) continue;
    EXPECT_EQ(decoded.motion.mvs[i], encoded.motion.mvs[i]);
  }
}

}  // namespace
}  // namespace dive::codec
