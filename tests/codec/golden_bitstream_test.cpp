// Golden bitstream regression: the encoder's output for a fixed seeded
// sequence is pinned by checksum at two operating points. Any change to
// motion search, transforms, quantization, entropy coding, SIMD kernels,
// or the pipelined schedule that alters a single output bit trips this
// test.
//
// We check in CHECKSUMS, not bytes: the bitstream is a few KB per QP and
// churns entirely on any intentional format change, while a 64-bit FNV-1a
// digest pins the same contract reviewably.
//
// If this test fails and the change is INTENTIONAL (a deliberate format
// or rate-distortion change), re-bake the constants: run the test, copy
// the "actual" values it prints into kGolden below, and call out the
// bitstream change explicitly in the commit message. If the change is NOT
// intentional, the encoder regressed — bisect before touching this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "util/rng.h"

namespace dive::codec {
namespace {

/// Seeded sequence with global motion and texture; must never change, or
/// the golden constants lose their meaning.
video::Frame golden_frame(int w, int h, std::uint64_t seed, int shift) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const int xs = x - shift;
      double v = 70 + 0.25 * xs + 0.15 * y;
      if ((xs / 16 + y / 12) % 2 == 0) v += 48;
      v += rng.uniform(-4, 4);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x) {
      f.u.at(x, y) = static_cast<std::uint8_t>(118 + ((x + shift) / 9) % 16);
      f.v.at(x, y) = static_cast<std::uint8_t>(132 + (y / 7) % 10);
    }
  return f;
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hands nonzero memory back to the encoder's scratch: allocates buffers
/// the size of the inter plan's and a trial's scratch (which the encoder
/// does not zero-fill) for a w x h frame, four of each, fills them with
/// 0x40 bytes and frees them, so the allocator serves those sizes from
/// poisoned memory. As a double 0x40 bytes read about 32.5 and as a level
/// about 1.08e9, so an element read before it is written changes the
/// bytes or the reconstruction. The frames are small enough that these
/// sizes come from the heap, not from fresh zeroed mmap pages.
void poison_heap(int w, int h) {
  const std::size_t blocks = static_cast<std::size_t>(w / kMacroblockSize) *
                             static_cast<std::size_t>(h / kMacroblockSize) * 6;
  std::vector<void*> held;
  for (int copy = 0; copy < 4; ++copy)
    for (const std::size_t bytes :
         {blocks * sizeof(Block8x8), blocks * sizeof(Block8x8),
          blocks * sizeof(QuantBlock), blocks * sizeof(std::uint64_t)}) {
      void* p = ::operator new(bytes);
      std::memset(p, 0x40, bytes);
      held.push_back(p);
    }
  for (void* p : held) ::operator delete(p);
}

/// Digest of the full encoded sequence (6 frames, 1 intra + 5 inter) at
/// one base QP and search method, frame boundaries mixed in via the
/// per-frame size. With `poison`, the heap is poisoned before every frame.
std::uint64_t sequence_digest(int qp,
                              MotionSearchMethod method =
                                  MotionSearchMethod::kHex,
                              int threads = 2, bool poison = false) {
  Encoder enc({.width = 128,
               .height = 64,
               .search = {.method = method},
               .threads = threads});
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 6; ++i) {
    const video::Frame cur =
        golden_frame(128, 64, 1200 + static_cast<std::uint64_t>(i), i * 4);
    if (poison) poison_heap(128, 64);
    const EncodedFrame out = enc.encode(cur, qp);
    h ^= out.data.size();
    h *= 0x100000001b3ULL;
    h = fnv1a(h, out.data);
  }
  return h;
}

/// Tunnel variant of the golden sequence: frames 2..3 are darkened to a
/// quarter of their luma, so the encoder's scene-change detection forces
/// I-frames at the entry (frame 2) and exit (frame 4) steps. Pins the
/// forced-intra path (mid-GoP reset) alongside the steady-state points.
std::uint64_t tunnel_sequence_digest(int qp) {
  Encoder enc({.width = 128, .height = 64, .threads = 2});
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto tunnel_frame = [](int i) {
    video::Frame f = golden_frame(
        128, 64, 1200 + static_cast<std::uint64_t>(i), i * 4);
    if (i >= 2 && i < 4)
      for (auto& v : f.y.data) v = static_cast<std::uint8_t>(v / 4);
    return f;
  };
  for (int i = 0; i < 6; ++i) {
    const EncodedFrame out = enc.encode(tunnel_frame(i), qp);
    h ^= out.data.size();
    h *= 0x100000001b3ULL;
    h = fnv1a(h, out.data);
  }
  return h;
}

struct GoldenPoint {
  int qp;
  MotionSearchMethod method;
  std::uint64_t digest;
};

// Baked from the canonical scalar serial encode; every {kernel, thread
// count} cell must reproduce these exactly (see the determinism matrix
// test for the cross-cell proof, this test for drift vs. history).
//
// Re-baked when per-macroblock SKIP coding landed: the skip bit changed
// from "zero MV and no residual" to "MV equals its predictor and no
// residual" (reference copy at the PREDICTED MV), and low-residual
// macroblocks are now forced to SKIP below the encoder's SAD threshold.
// Only the qp=38 digest moved (at qp=22 no macroblock of this sequence
// satisfies either skip predicate). The hme point pins the hierarchical
// pyramid search alongside the default hex.
constexpr GoldenPoint kGolden[] = {
    {22, MotionSearchMethod::kHex, 0x5d6f40da263a3402ULL},
    {38, MotionSearchMethod::kHex, 0x8e7244f23a7bb49eULL},
    {30, MotionSearchMethod::kHme, 0x5494e2988427b784ULL},
};

TEST(GoldenBitstream, DigestsMatchCheckedInConstants) {
  for (const auto& point : kGolden) {
    const std::uint64_t actual = sequence_digest(point.qp, point.method);
    EXPECT_EQ(actual, point.digest)
        << "\n"
        << "GOLDEN BITSTREAM MISMATCH at qp=" << point.qp << " method="
        << to_string(point.method) << "\n"
        << "  expected digest: 0x" << std::hex << point.digest << "\n"
        << "  actual digest:   0x" << std::hex << actual << "\n"
        << "The encoder's output changed for the pinned seeded sequence.\n"
        << "If this is an INTENTIONAL format/RD change: update kGolden in\n"
        << "tests/codec/golden_bitstream_test.cpp with the actual value\n"
        << "above and describe the bitstream change in the commit message.\n"
        << "If not intentional: you broke the encoder — bisect, do not\n"
        << "re-bake.";
  }
}

// Baked from the canonical run the same way as kGolden. The existing
// points above did NOT move when scene-change detection landed (the
// steady-luma golden sequence never trips the 24 DN threshold); this
// point is new and covers the sequence that does.
constexpr std::uint64_t kTunnelGoldenQp30 = 0x7b8578602feff239ULL;

TEST(GoldenBitstream, TunnelDigestMatchesCheckedInConstant) {
  const std::uint64_t actual = tunnel_sequence_digest(30);
  EXPECT_EQ(actual, kTunnelGoldenQp30)
      << "\n"
      << "GOLDEN BITSTREAM MISMATCH on the tunnel (scene-cut) sequence\n"
      << "  expected digest: 0x" << std::hex << kTunnelGoldenQp30 << "\n"
      << "  actual digest:   0x" << std::hex << actual << "\n"
      << "Re-bake kTunnelGoldenQp30 only for INTENTIONAL format, RD, or\n"
      << "scene-change-policy changes, and say so in the commit message.";
}

TEST(GoldenBitstream, GoldenSequenceStillDecodes) {
  // Guards the golden points themselves: the pinned stream must remain a
  // valid, decodable bitstream whose reconstruction tracks the encoder.
  Encoder enc({.width = 128, .height = 64, .threads = 2});
  Decoder dec;
  for (int i = 0; i < 6; ++i) {
    const video::Frame cur =
        golden_frame(128, 64, 1200 + static_cast<std::uint64_t>(i), i * 4);
    const EncodedFrame out = enc.encode(cur, 22);
    const auto decoded = dec.decode(out.data);
    ASSERT_EQ(decoded.frame, enc.reference()) << "frame " << i;
  }
}

TEST(GoldenBitstream, PoisonedHeapKeepsDigestsAndDecoderAgreement) {
  // The encoder leaves its plan and trial scratch unwritten where it is
  // never read (DESIGN §7). With that memory poisoned before every frame,
  // the golden digests must still hold, and under rate control (where
  // overshooting trials are cut and leave stale rows behind) the
  // encoder's reconstruction must still equal the decoder's output and
  // every frame the bytes of a fixed-QP encode at the committed QP.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (const auto& point : kGolden)
      EXPECT_EQ(sequence_digest(point.qp, point.method, threads, true),
                point.digest)
          << "qp=" << point.qp << " method=" << to_string(point.method);

    for (const std::size_t target : {300U, 900U, 2500U}) {
      SCOPED_TRACE("target=" + std::to_string(target));
      const EncoderConfig cfg{.width = 128, .height = 64, .threads = threads};
      Encoder enc(cfg);
      Encoder fixed(cfg);
      Decoder dec;
      for (int i = 0; i < 6; ++i) {
        const video::Frame cur =
            golden_frame(128, 64, 1200 + static_cast<std::uint64_t>(i), i * 4);
        poison_heap(128, 64);
        const EncodedFrame out = enc.encode_to_target(cur, target);
        poison_heap(128, 64);
        ASSERT_EQ(dec.decode(out.data).frame, enc.reference()) << "frame " << i;
        poison_heap(128, 64);
        ASSERT_EQ(fixed.encode(cur, out.base_qp).data, out.data)
            << "frame " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dive::codec
