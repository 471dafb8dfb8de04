// Determinism matrix for the encode pipeline: the encoded bytes (and
// PSNR) of a seeded sequence must be identical across every cell of
//   {1, 2, 8 threads} x {scalar, auto SAD kernel}
//     x {hex, hme search} x {skip on, off},
// where "hme" is the hierarchical pyramid search and "skip" is
// per-macroblock SKIP coding. Threads/kernel may only change speed,
// never bytes; hme and skip DO change bytes, so each (hme, skip) pair
// forms its own baseline group and every cell must match its group's
// serial-scalar baseline exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/sad_kernels.h"
#include "util/rng.h"

namespace dive::codec {
namespace {

video::Frame matrix_frame(int w, int h, std::uint64_t seed, int shift = 0) {
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

std::vector<video::Frame> matrix_sequence(int w, int h, int n) {
  std::vector<video::Frame> seq;
  seq.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    seq.push_back(matrix_frame(w, h, 900 + static_cast<std::uint64_t>(i),
                               i * 3));
  return seq;
}

struct Cell {
  int threads;
  SadKernelPolicy sad;
  bool hme = false;  ///< hierarchical pyramid search instead of hex
  /// Per-macroblock SKIP coding; defaults to the EncoderConfig default so
  /// partially-braced Cells compare against default-config encoders.
  bool skip = true;
};

std::string cell_name(const Cell& c) {
  return "threads=" + std::to_string(c.threads) +
         (c.sad == SadKernelPolicy::kScalar ? " sad=scalar" : " sad=auto") +
         (c.hme ? " search=hme" : " search=hex") +
         (c.skip ? " skip=on" : " skip=off");
}

EncoderConfig cell_config(const Cell& c, int w, int h) {
  EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.threads = c.threads;
  cfg.search.method =
      c.hme ? MotionSearchMethod::kHme : MotionSearchMethod::kHex;
  cfg.search.sad = c.sad;
  cfg.skip_blocks = c.skip;
  return cfg;
}

std::vector<EncodedFrame> encode_fixed_qp(const Cell& c,
                                          const std::vector<video::Frame>& seq,
                                          int qp) {
  Encoder enc(cell_config(c, seq[0].width(), seq[0].height()));
  std::vector<EncodedFrame> out;
  for (const auto& f : seq) out.push_back(enc.encode(f, qp));
  return out;
}

std::vector<EncodedFrame> encode_targeted(const Cell& c,
                                          const std::vector<video::Frame>& seq,
                                          std::size_t target) {
  Encoder enc(cell_config(c, seq[0].width(), seq[0].height()));
  std::vector<EncodedFrame> out;
  for (const auto& f : seq) out.push_back(enc.encode_to_target(f, target));
  return out;
}

std::vector<Cell> matrix_cells(bool hme, bool skip) {
  std::vector<Cell> cells;
  for (int threads : {1, 2, 8})
    for (SadKernelPolicy sad :
         {SadKernelPolicy::kScalar, SadKernelPolicy::kAuto})
      cells.push_back({threads, sad, hme, skip});
  return cells;
}

TEST(DeterminismMatrix, FixedQpBytesAndPsnrIdentical) {
  const auto seq = matrix_sequence(128, 64, 5);
  for (bool hme : {false, true}) {
    for (bool skip : {false, true}) {
      const Cell base{1, SadKernelPolicy::kScalar, hme, skip};
      const auto baseline = encode_fixed_qp(base, seq, 26);
      for (const Cell& c : matrix_cells(hme, skip)) {
        const auto run = encode_fixed_qp(c, seq, 26);
        ASSERT_EQ(run.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          ASSERT_EQ(run[i].data, baseline[i].data)
              << cell_name(c) << " frame=" << i;
          ASSERT_EQ(run[i].base_qp, baseline[i].base_qp) << cell_name(c);
          ASSERT_EQ(run[i].skipped_mbs, baseline[i].skipped_mbs)
              << cell_name(c);
          ASSERT_DOUBLE_EQ(run[i].psnr_y, baseline[i].psnr_y)
              << cell_name(c);
        }
      }
    }
  }
}

TEST(DeterminismMatrix, RateControlledBytesAndPsnrIdentical) {
  const auto seq = matrix_sequence(128, 64, 5);
  for (bool hme : {false, true}) {
    for (bool skip : {false, true}) {
      const Cell base{1, SadKernelPolicy::kScalar, hme, skip};
      const auto baseline = encode_targeted(base, seq, 900);
      for (const Cell& c : matrix_cells(hme, skip)) {
        const auto run = encode_targeted(c, seq, 900);
        ASSERT_EQ(run.size(), baseline.size());
        for (std::size_t i = 0; i < baseline.size(); ++i) {
          ASSERT_EQ(run[i].data, baseline[i].data)
              << cell_name(c) << " frame=" << i;
          ASSERT_EQ(run[i].base_qp, baseline[i].base_qp) << cell_name(c);
          ASSERT_EQ(run[i].skipped_mbs, baseline[i].skipped_mbs)
              << cell_name(c);
          ASSERT_DOUBLE_EQ(run[i].psnr_y, baseline[i].psnr_y)
              << cell_name(c);
        }
      }
    }
  }
}

TEST(DeterminismMatrix, TunnelSequenceBytesIdentical) {
  // Tunnel regression cell: a mid-sequence global luma step trips the
  // encoder's scene-change detection, so this sequence exercises the
  // forced-intra path (mid-GoP reset) in every cell. Threads x kernel
  // must still agree byte-for-byte, including ON the cut frame.
  std::vector<video::Frame> seq;
  for (int i = 0; i < 6; ++i) {
    video::Frame f = matrix_frame(128, 64, 900 + static_cast<std::uint64_t>(i),
                                  i * 3);
    if (i >= 2 && i < 4)  // frames 2..3 are "inside the tunnel"
      for (auto& v : f.y.data)
        v = static_cast<std::uint8_t>(v / 4);
    seq.push_back(std::move(f));
  }

  const Cell base{1, SadKernelPolicy::kScalar};
  const auto baseline = encode_fixed_qp(base, seq, 26);
  // Entry (frame 2) and exit (frame 4) both force I-frames.
  ASSERT_EQ(baseline[2].type, FrameType::kIntra);
  ASSERT_EQ(baseline[3].type, FrameType::kInter);
  ASSERT_EQ(baseline[4].type, FrameType::kIntra);

  for (const Cell& c : matrix_cells(/*hme=*/false, /*skip=*/true)) {
    const auto run = encode_fixed_qp(c, seq, 26);
    ASSERT_EQ(run.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(run[i].type, baseline[i].type)
          << cell_name(c) << " frame=" << i;
      ASSERT_EQ(run[i].data, baseline[i].data)
          << cell_name(c) << " frame=" << i;
    }
  }
}

TEST(DeterminismMatrix, DecoderAgreesInEveryGroup) {
  // The reconstruction becomes the reference before the bitstream is
  // emitted (fixed QP) or before PSNR/bookkeeping (rate-controlled); the
  // decoder must track the encoder's reference exactly, for both paths
  // in every (hme, skip) group.
  const auto seq = matrix_sequence(128, 64, 4);
  for (bool hme : {false, true}) {
    for (bool skip : {false, true}) {
      const Cell c{2, SadKernelPolicy::kAuto, hme, skip};
      for (bool targeted : {false, true}) {
        Encoder enc(cell_config(c, 128, 64));
        Decoder dec;
        for (std::size_t i = 0; i < seq.size(); ++i) {
          const auto encoded = targeted ? enc.encode_to_target(seq[i], 900)
                                        : enc.encode(seq[i], 24);
          const auto decoded = dec.decode(encoded.data);
          ASSERT_EQ(decoded.frame, enc.reference())
              << cell_name(c) << (targeted ? " targeted" : " fixed-qp")
              << " frame=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dive::codec
