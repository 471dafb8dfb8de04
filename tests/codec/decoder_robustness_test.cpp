// Decoder robustness: the deterministic twin of fuzz_bitstream_decode.
//
// The edge server decodes radio bytes; a truncated burst or a single
// flipped bit must surface as a clean BitstreamError (via try_decode's
// nullopt), never as UB, a crash, or a poisoned decoder. This test walks
// EVERY prefix length and EVERY 1-bit corruption of a small golden
// two-frame stream (intra + inter with motion/SKIP/residual), so the
// exhaustive small-corruption neighborhood is pinned in tier-1 while the
// fuzzers explore the rest of the input space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/reconstruct.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::codec {
namespace {

video::Frame textured_frame(int w, int h, std::uint64_t seed, int shift) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      int v = 60 + ((x - shift) / 8 + y / 8) * 16 + rng.uniform(-6, 6);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
    }
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x) {
      f.u.at(x, y) = static_cast<std::uint8_t>(110 + x % 24);
      f.v.at(x, y) = static_cast<std::uint8_t>(140 - y % 24);
    }
  return f;
}

struct GoldenStreams {
  std::vector<std::uint8_t> intra;
  std::vector<std::uint8_t> inter;
};

const GoldenStreams& golden() {
  static const GoldenStreams streams = [] {
    EncoderConfig cfg;
    cfg.width = 48;
    cfg.height = 32;
    cfg.threads = 1;
    Encoder enc(cfg);
    GoldenStreams s;
    s.intra = enc.encode(textured_frame(48, 32, 7, 0), 30).data;
    s.inter = enc.encode(textured_frame(48, 32, 7, 3), 30).data;
    return s;
  }();
  return streams;
}

/// Fresh decoder with the golden intra frame already decoded (the state
/// the inter stream was encoded against).
Decoder decoder_with_reference() {
  Decoder dec;
  EXPECT_TRUE(dec.try_decode(golden().intra).has_value());
  return dec;
}

TEST(DecoderRobustness, GoldenStreamsDecode) {
  Decoder dec;
  ASSERT_TRUE(dec.try_decode(golden().intra).has_value());
  const auto inter = dec.try_decode(golden().inter);
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(inter->type, FrameType::kInter);
}

TEST(DecoderRobustness, EveryIntraPrefixCleanlyDecodesOrRejects) {
  const auto& bytes = golden().intra;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Decoder dec;
    std::string error;
    const auto out = dec.try_decode(
        std::span<const std::uint8_t>(bytes.data(), len), &error);
    // A strict prefix can only fail; it must do so with a message and
    // without establishing a reference.
    EXPECT_FALSE(out.has_value()) << "prefix length " << len;
    EXPECT_FALSE(error.empty()) << "prefix length " << len;
    EXPECT_FALSE(dec.has_reference()) << "prefix length " << len;
  }
}

TEST(DecoderRobustness, EveryInterPrefixCleanlyDecodesOrRejects) {
  const auto& bytes = golden().inter;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Decoder dec = decoder_with_reference();
    const auto out =
        dec.try_decode(std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_FALSE(out.has_value()) << "prefix length " << len;
    // The failed frame must not have poisoned the session: the same
    // inter stream still decodes against the preserved reference.
    EXPECT_TRUE(dec.try_decode(bytes).has_value()) << "prefix length " << len;
  }
}

TEST(DecoderRobustness, EveryIntraBitFlipDecodesOrRejects) {
  const auto& bytes = golden().intra;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Decoder dec;
    // Either outcome is legal — flips in residual coefficients still
    // decode to SOME frame — but it must be a clean outcome.
    (void)dec.try_decode(corrupt);
  }
}

TEST(DecoderRobustness, EveryInterBitFlipDecodesOrRejects) {
  const auto& bytes = golden().inter;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Decoder dec = decoder_with_reference();
    const bool accepted = dec.try_decode(corrupt).has_value();
    if (!accepted) {
      // Rejection must leave the reference intact for the next frame.
      EXPECT_TRUE(dec.try_decode(bytes).has_value()) << "bit " << bit;
    }
  }
}

TEST(DecoderRobustness, EmptyAndGarbageInputsReject) {
  Decoder dec;
  EXPECT_FALSE(dec.try_decode({}).has_value());
  const std::vector<std::uint8_t> garbage(64, 0xFF);
  EXPECT_FALSE(dec.try_decode(garbage).has_value());
  std::string error;
  const std::vector<std::uint8_t> bad_magic = {0x00, 0x01, 0x02, 0x03};
  EXPECT_FALSE(dec.try_decode(bad_magic, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(DecoderRobustness, InterWithoutReferenceRejects) {
  // Valid inter stream, fresh decoder: must reject, not read a null
  // reference.
  Decoder dec;
  std::string error;
  EXPECT_FALSE(dec.try_decode(golden().inter, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(DecoderRobustness, HostileZeroRunRejects) {
  // A 1x1-macroblock intra frame whose first block codes one level per
  // entry of `runs`, each after that zero run. The run is untrusted: it
  // must be bounded before it moves the zigzag position: 2^31 would
  // wrap it negative, and INT32_MAX added to a nonzero one overflows.
  const auto stream = [](std::initializer_list<std::uint32_t> runs) {
    BitWriter bw;
    write_frame_header(bw, {FrameType::kIntra, 30, 1, 1});
    bw.put_se(0);      // macroblock QP delta
    bw.put_bit(true);  // block 0 coded
    bw.put_ue(static_cast<std::uint32_t>(runs.size()));
    for (const std::uint32_t run : runs) {
      bw.put_ue(run);
      bw.put_se(1);
    }
    return bw.finish();
  };
  for (const auto& bytes : {stream({0x80000000u}), stream({0xFFFFFFFEu}),
                            stream({0u, 0x7FFFFFFFu})}) {
    Decoder dec;
    std::string error;
    EXPECT_FALSE(dec.try_decode(bytes, &error).has_value());
    EXPECT_NE(error.find("zigzag overrun"), std::string::npos) << error;
    EXPECT_FALSE(dec.has_reference());
  }
}

TEST(DecoderRobustness, ThrowingDecodeStillAvailable) {
  // The throwing API is the hot-path contract (no optional overhead);
  // try_decode is the same function with the error folded. Both must
  // agree on every outcome.
  Decoder a;
  Decoder b;
  EXPECT_THROW(a.decode(std::vector<std::uint8_t>{0xD1}), BitstreamError);
  EXPECT_FALSE(b.try_decode(std::vector<std::uint8_t>{0xD1}).has_value());
}

}  // namespace
}  // namespace dive::codec
