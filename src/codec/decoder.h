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
#include <utility>

#include "codec/types.h"
#include "video/frame.h"

namespace dive::codec {

struct DecodedFrame {
  video::Frame frame;
  FrameType type = FrameType::kIntra;
  int base_qp = 0;
  /// Motion field parsed from the stream (inter frames; SKIP MBs take
  /// the predicted vector: the left neighbour's, zero at a row start).
  MotionField motion;
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

/// Luma width and height an encoded frame's header declares, read without
/// decoding the frame or touching any decoder; {0, 0} when the header is
/// malformed. The edge plans a frame's inference from it at admission,
/// before its decoder reaches the frame.
[[nodiscard]] std::pair<int, int> peek_frame_size(
    std::span<const std::uint8_t> data);

}  // namespace dive::codec
