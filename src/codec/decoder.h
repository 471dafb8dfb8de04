// Block video decoder — the edge server's half of the codec. Maintains its
// own reference frame; decoding a stream produced by Encoder reproduces
// the encoder's reconstruction exactly (asserted by round-trip tests).
// Inter blocks are predicted on demand from that reference
// (mc_predict_u8), so a decode call builds no padded reference planes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/types.h"
#include "video/frame.h"

namespace dive::codec {

struct DecodedFrame {
  video::Frame frame;
  FrameType type = FrameType::kIntra;
  int base_qp = 0;
  /// Motion field parsed from the stream (inter frames; empty for intra).
  /// SKIP MBs take the predicted vector: the left neighbour's, zero at a
  /// row start. Equals the encoder's EncodedFrame::motion vectors.
  MotionField motion;
  /// Per-MB SKIP bits in raster order, 0/1 (inter frames; empty for
  /// intra). Equals the encoder's EncodedFrame::skip.
  std::vector<std::uint8_t> skip;
};

class Decoder {
 public:
  Decoder() = default;

  /// Decodes one encoded frame. Throws BitstreamError on malformed input
  /// (including an inter frame arriving before any reference exists).
  DecodedFrame decode(std::span<const std::uint8_t> data);

  /// Total-function variant for untrusted bytes: never throws, never
  /// invokes UB, allocation bounded by the 1024x1024-macroblock geometry
  /// cap. Returns nullopt on any malformed input (optionally reporting
  /// why via `error`); the decoder state is untouched on failure, so a
  /// session survives a corrupt frame and resumes on the next good one.
  std::optional<DecodedFrame> try_decode(std::span<const std::uint8_t> data,
                                         std::string* error = nullptr);

  [[nodiscard]] bool has_reference() const { return has_reference_; }
  [[nodiscard]] const video::Frame& reference() const { return reference_; }

 private:
  video::Frame reference_;
  bool has_reference_ = false;
};

}  // namespace dive::codec
