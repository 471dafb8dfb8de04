// Seed-corpus generator for the wire-format fuzz targets.
//
// Emits REAL encodes, so the fuzzers start from deep inside the accepted
// language of each parser, plus BitWriter-built boundary seeds that no
// encoder would produce:
//   <out>/bitstream/     one GOP of intra/inter/SKIP/HME frames, and
//                        edge_* streams: a hostile 2^31 zero run, and the
//                        largest motion-vector and QP deltas the decoder
//                        accepts (64x64 inter frames, the fuzz target's
//                        reference size)
//   <out>/roi_metadata/  sidecars on those encodes' MB grid: grid only,
//                        with hull regions, with a degenerate hull
//   <out>/bitio/         op sequences for fuzz_bitio: short codes, the
//                        longest codes, every put_bits width, and the
//                        shape of a frame's symbol stream
//
// Re-seeding after a format change (see DESIGN §14):
//   cmake --preset fuzz && cmake --build --preset fuzz --target gen_corpus
//   ./build-fuzz/fuzz/gen_corpus fuzz/corpus
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "codec/bitstream.h"
#include "codec/encoder.h"
#include "codec/reconstruct.h"
#include "roi/metadata.h"
#include "video/frame.h"

namespace {

using namespace dive;

video::Frame moving_scene(int w, int h, int t) {
  video::Frame f(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      f.y.at(x, y) = static_cast<std::uint8_t>((x * 3 + y * 2 + t) & 0xFF);
  // A moving bright square (inter frames get real motion + residual).
  const int ox = 4 + 3 * t;
  for (int y = 8; y < 8 + 16 && y < h; ++y)
    for (int x = ox; x < ox + 16 && x < w; ++x) f.y.at(x, y) = 245;
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x) {
      f.u.at(x, y) = static_cast<std::uint8_t>(90 + ((x + t) & 0x3F));
      f.v.at(x, y) = static_cast<std::uint8_t>(170 - (y & 0x3F));
    }
  return f;
}

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("%s: %zu bytes\n", path.string().c_str(), bytes.size());
}

/// A 64x64 inter frame whose first macroblock is coded with the given
/// deltas (and one level in its first luma block when `cbp` is set);
/// every other macroblock is SKIP.
std::vector<std::uint8_t> edge_inter(int base_qp, int mv_dx, int mv_dy,
                                     int qp_delta, bool cbp) {
  codec::BitWriter bw;
  codec::write_frame_header(bw, {codec::FrameType::kInter, base_qp, 4, 4});
  bw.put_bit(false);  // macroblock 0 not SKIP
  bw.put_se(mv_dx);
  bw.put_se(mv_dy);
  bw.put_se(qp_delta);
  bw.put_bits(cbp ? 1U : 0U, 6);
  if (cbp) {
    bw.put_ue(1);  // one level
    bw.put_ue(0);  // zero run
    bw.put_se(-3);
  }
  for (int mb = 1; mb < 16; ++mb) bw.put_bit(true);
  return bw.finish();
}

/// A 16x16 intra frame whose first block codes one level after a zero
/// run of 2^31, which must be rejected before it moves the zigzag
/// position.
std::vector<std::uint8_t> edge_zero_run() {
  codec::BitWriter bw;
  codec::write_frame_header(bw, {codec::FrameType::kIntra, 30, 1, 1});
  bw.put_se(0);      // macroblock QP delta
  bw.put_bit(true);  // block 0 coded
  bw.put_ue(1);      // one level
  bw.put_ue(0x80000000U);
  bw.put_se(1);
  return bw.finish();
}

/// Builds a fuzz_bitio input (op encoding documented in fuzz_bitio.cpp).
class BitioOps {
 public:
  void bit(bool b) { bytes_.push_back(b ? 4 : 0); }
  void bits(std::uint32_t value, int count) {
    bytes_.push_back(static_cast<std::uint8_t>(1 | (count - 1) << 2));
    payload(value, 4);
  }
  void ue(std::uint32_t value) {
    if (value < 16) bytes_.push_back(static_cast<std::uint8_t>(2 | value << 4));
    else if (value < 0x100) tagged(2, 1, value);
    else if (value < 0x10000) tagged(2, 2, value);
    else tagged(2, 3, value);
  }
  void se(std::int32_t value) {
    const auto v = static_cast<std::uint32_t>(value);
    if (value >= -8 && value <= 7)
      bytes_.push_back(static_cast<std::uint8_t>(3 | (value + 8) << 4));
    else if (value >= -128 && value <= 127) tagged(3, 1, v);
    else if (value >= -32768 && value <= 32767) tagged(3, 2, v);
    else tagged(3, 3, v);
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  /// A ue/se op with a 1-, 2- or 4-byte payload (width 1, 2, 3).
  void tagged(int kind, int width, std::uint32_t value) {
    bytes_.push_back(static_cast<std::uint8_t>(kind | width << 2));
    payload(value, width == 3 ? 4 : width);
  }
  void payload(std::uint32_t value, int n) {
    for (int i = n - 1; i >= 0; --i)
      bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  std::vector<std::uint8_t> bytes_;
};

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  fs::create_directories(root / "bitstream");
  fs::create_directories(root / "roi_metadata");
  fs::create_directories(root / "bitio");

  // --- Bitstream corpus: one small GOP per interesting encoder mode. ---
  struct ModeSpec {
    const char* name;
    codec::MotionSearchMethod method;
    bool skip;
  };
  const ModeSpec modes[] = {
      {"hex", codec::MotionSearchMethod::kHex, true},
      {"hme", codec::MotionSearchMethod::kHme, true},
      {"noskip", codec::MotionSearchMethod::kHex, false},
  };
  for (const auto& mode : modes) {
    codec::EncoderConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.threads = 1;
    cfg.search.method = mode.method;
    cfg.skip_blocks = mode.skip;
    codec::Encoder enc(cfg);
    for (int t = 0; t < 3; ++t) {
      const auto frame = moving_scene(cfg.width, cfg.height, t);
      const auto encoded =
          t == 1 ? enc.encode_to_target(frame, 900) : enc.encode(frame, 30);
      write_file(root / "bitstream" /
                     (std::string(mode.name) + "_f" + std::to_string(t)),
                 encoded.data);
    }
  }

  // --- Bitstream boundary seeds. The decoder accepts vectors up to
  // twice the frame size in half-pel units and QPs in [0, 51]. ---
  write_file(root / "bitstream" / "edge_zero_run", edge_zero_run());
  write_file(root / "bitstream" / "edge_mv_delta",
             edge_inter(30, 2 * 64, -2 * 64, 0, false));
  write_file(root / "bitstream" / "edge_qp_delta",
             edge_inter(0, 0, 0, codec::kMaxQp, true));

  // --- Bit I/O op sequences (fuzz_bitio). ---
  {
    BitioOps small;
    for (int i = 0; i < 48; ++i) {
      small.bit(i % 3 == 0);
      small.ue(static_cast<std::uint32_t>(i % 20));
      small.se(i % 2 == 0 ? i / 2 : -i / 2);
      small.bits(static_cast<std::uint32_t>(i * 37), 1 + i % 9);
    }
    write_file(root / "bitio" / "small_codes", small.bytes());

    BitioOps longest;
    longest.bit(true);  // misalign every code below
    longest.ue(0xFFFFFFFFU);
    longest.se(2147483647);
    longest.se(-2147483647);
    longest.ue(65535);
    longest.ue(65534);
    longest.bits(0xFFFFFFFFU, 32);
    longest.ue(0x7FFFFFFFU);
    write_file(root / "bitio" / "longest_codes", longest.bytes());

    BitioOps widths;
    for (int count = 1; count <= 32; ++count) {
      widths.bits(0xA5C3F00FU, count);
      widths.bit(count % 2 == 1);
    }
    write_file(root / "bitio" / "put_bits_widths", widths.bytes());

    // The symbol shape of an inter frame: header, then per macroblock a
    // SKIP bit or MV/QP deltas, a cbp and (count, run, level) blocks.
    BitioOps frame;
    frame.bits(0xD1, 8);
    frame.bit(true);
    frame.bits(28, 6);
    frame.ue(12);
    frame.ue(8);
    for (int mb = 0; mb < 24; ++mb) {
      const bool skip = mb % 3 == 1;
      frame.bit(skip);
      if (skip) continue;
      frame.se(mb % 5 - 2);
      frame.se(1 - mb % 4);
      frame.se(mb % 7 == 0 ? 3 : 0);
      frame.bits(static_cast<std::uint32_t>(mb * 11) & 0x3F, 6);
      frame.ue(3);
      for (int k = 0; k < 3; ++k) {
        frame.ue(static_cast<std::uint32_t>(k * (mb % 6)));
        frame.se(k == 0 ? -(mb % 9) - 1 : 1);
      }
    }
    write_file(root / "bitio" / "frame_symbols", frame.bytes());
  }

  // --- RoI metadata corpus: sidecars on the 64x48 grid of the encodes
  // above, with and without foreground hull regions (including a
  // degenerate 2-pt hull, which the wire format must carry verbatim). ---
  for (int idx = 0; idx < 3; ++idx) {
    roi::RoiMetadata meta;
    meta.mb_cols = 64 / codec::kMacroblockSize;
    meta.mb_rows = 48 / codec::kMacroblockSize;
    if (idx == 1) {
      roi::add_region(meta,
                      {{8.0, 10.0}, {30.0, 9.5}, {31.0, 27.0}, {7.5, 26.0}});
      roi::add_region(meta, {{40.0, 12.0}, {55.0, 14.0}, {48.0, 30.0}});
    } else if (idx == 2) {
      roi::add_region(meta, {{2.0, 2.0}, {5.0, 2.0}});
    }
    write_file(root / "roi_metadata" / ("sidecar_" + std::to_string(idx)),
               meta.serialize());
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
