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
//   <out>/roi_metadata/  sidecars built from those encodes + hull regions
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

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  fs::create_directories(root / "bitstream");
  fs::create_directories(root / "roi_metadata");

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
  std::vector<roi::RoiMetadata> sidecars;
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
      sidecars.push_back(roi::from_encoded(encoded, cfg.width, cfg.height));
    }
  }

  // --- Bitstream boundary seeds. The decoder accepts vectors up to
  // twice the frame size in half-pel units and QPs in [0, 51]. ---
  write_file(root / "bitstream" / "edge_zero_run", edge_zero_run());
  write_file(root / "bitstream" / "edge_mv_delta",
             edge_inter(30, 2 * 64, -2 * 64, 0, false));
  write_file(root / "bitstream" / "edge_qp_delta",
             edge_inter(0, 0, 0, codec::kMaxQp, true));

  // --- RoI metadata corpus: sidecars from the encodes above, with and
  // without foreground hull regions (including a degenerate 2-pt hull,
  // which the wire format must carry verbatim). ---
  int idx = 0;
  for (auto& meta : sidecars) {
    if (idx % 3 == 1) {
      roi::add_region(meta,
                      {{8.0, 10.0}, {30.0, 9.5}, {31.0, 27.0}, {7.5, 26.0}},
                      {1.5, -0.5});
      roi::add_region(meta, {{40.0, 12.0}, {55.0, 14.0}, {48.0, 30.0}},
                      {-2.0, 0.0});
    } else if (idx % 3 == 2) {
      roi::add_region(meta, {{2.0, 2.0}, {5.0, 2.0}}, {0.0, 0.0});
    }
    write_file(root / "roi_metadata" / ("sidecar_" + std::to_string(idx)),
               meta.serialize());
    ++idx;
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
