#include "codec/decoder.h"

#include <array>
#include <optional>

#include "codec/bitstream.h"
#include "codec/block_io.h"
#include "codec/block_pixels.h"
#include "codec/reconstruct.h"

namespace dive::codec {

DecodedFrame Decoder::decode(std::span<const std::uint8_t> data) {
  BitReader br(data);
  const FrameHeader h =
      read_frame_header(br, has_reference_ ? &reference_ : nullptr);
  if (h.type == FrameType::kInter && !has_reference_)
    throw BitstreamError("Decoder: inter frame without reference");

  DecodedFrame out;
  out.type = h.type;
  out.base_qp = h.base_qp;
  out.frame = video::Frame(h.mb_cols * kMacroblockSize,
                           h.mb_rows * kMacroblockSize);
  if (h.type == FrameType::kInter) {
    out.motion = MotionField(h.mb_cols, h.mb_rows);
    out.skip.resize(out.motion.size());
  }
  const int width = out.frame.width();
  const int height = out.frame.height();

  QuantBlock levels;
  int prev_qp = h.base_qp;

  for (int row = 0; row < h.mb_rows; ++row) {
    for (int col = 0; col < h.mb_cols; ++col) {
      if (h.type == FrameType::kInter) {
        // SKIP bit: the macroblock moves with the predicted motion vector
        // and carries no residual — copy the reference at that
        // displacement.
        const bool skip = br.get_bit();
        out.skip[static_cast<std::size_t>(row) * h.mb_cols + col] = skip;
        const MotionVector pred_mv = predicted_mv(out.motion, col, row);
        MotionVector mv = pred_mv;
        int qp = prev_qp;
        int cbp = 0;
        if (!skip) {
          // Accumulate prediction + delta in 64 bits: hostile deltas are
          // near INT32_MAX and would overflow int (UB) before the
          // plausibility check below could reject them.
          const std::int64_t dx64 =
              static_cast<std::int64_t>(pred_mv.dx) + br.get_se();
          const std::int64_t dy64 =
              static_cast<std::int64_t>(pred_mv.dy) + br.get_se();
          // Half-pel units: no real vector points further than one full
          // frame away. Keeps the block-origin math far from int
          // overflow; mc_predict_u8 clamps the reads of anything past
          // the plane.
          if (dx64 < -2 * width || dx64 > 2 * width || dy64 < -2 * height ||
              dy64 > 2 * height)
            throw BitstreamError("Decoder: implausible motion vector");
          mv.dx = static_cast<int>(dx64);
          mv.dy = static_cast<int>(dy64);
          const std::int64_t qp64 =
              static_cast<std::int64_t>(prev_qp) + br.get_se();
          if (qp64 < kMinQp || qp64 > kMaxQp)
            throw BitstreamError("Decoder: QP out of range");
          qp = static_cast<int>(qp64);
          prev_qp = qp;
          cbp = static_cast<int>(br.get_bits(6));
        }
        out.motion.at(col, row) = mv;
        // Each block is predicted on demand from the reference frame
        // itself (no padded half-pel planes are built). An uncoded block
        // is its prediction, written straight into the output; a coded
        // one adds its residual.
        const auto blocks = mb_blocks(col, row);
        for (int b = 0; b < kBlocksPerMb; ++b) {
          const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
          video::Plane& dst = plane_of(out.frame, blk.plane);
          const video::Plane& ref = plane_of(reference_, blk.plane);
          const MotionVector bmv = blk.plane == 0 ? mv : chroma_mv(mv);
          if ((cbp & (1 << b)) == 0) {
            mc_predict_u8(ref, blk.bx, blk.by, bmv, &dst.at(blk.bx, blk.by),
                          dst.width);
            continue;
          }
          read_block(br, levels);
          std::array<std::uint8_t, kBlockSize * kBlockSize> px;
          mc_predict_u8(ref, blk.bx, blk.by, bmv, px.data(), kBlockSize);
          Block8x8 pred;
          load_block_u8(px.data(), kBlockSize, pred);
          reconstruct_block(dst, blk.bx, blk.by, pred, &levels, qp);
        }
      } else {
        const std::int64_t qp64 =
            static_cast<std::int64_t>(prev_qp) + br.get_se();
        if (qp64 < kMinQp || qp64 > kMaxQp)
          throw BitstreamError("Decoder: QP out of range");
        const int qp = static_cast<int>(qp64);
        prev_qp = qp;

        // DC prediction reads the blocks reconstructed before it, so
        // each block is predicted, parsed and reconstructed in turn.
        for (const MbBlock& blk : mb_blocks(col, row)) {
          video::Plane& dst = plane_of(out.frame, blk.plane);
          const Block8x8 pred = dc_predict(dst, blk.bx, blk.by);
          const bool coded = br.get_bit();
          if (coded) read_block(br, levels);
          reconstruct_block(dst, blk.bx, blk.by, pred,
                            coded ? &levels : nullptr, qp);
        }
      }
    }
  }

  reference_ = out.frame;
  has_reference_ = true;
  return out;
}

std::optional<DecodedFrame> Decoder::try_decode(
    std::span<const std::uint8_t> data, std::string* error) {
  // decode() commits reference_/has_reference_ only after the whole frame
  // parsed, so catching here leaves the decoder exactly as it was.
  try {
    return decode(data);
  } catch (const BitstreamError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace dive::codec
