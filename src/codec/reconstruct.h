// The decisions encoder and decoder must make identically, defined once:
// frame-header syntax, macroblock block geometry, the predicted-MV and
// chroma-MV rules, DC intra and motion-compensated prediction, and block
// reconstruction (dequantize + IDCT + clamp). The encoder's reconstruction
// equals the decoder's output bit for bit because both call these, so a
// change to any of them is a format change made in one place. Every
// motion-compensated block either side codes is predicted on demand by
// mc_predict_u8; only motion search reads padded RefPlanes, and the
// differential McPredict tests pin the two equal.
//
// Everything is inline, like block_io.h, so the per-block hot loops of
// both sides compile exactly as if written in place.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "codec/bitstream.h"
#include "codec/block_pixels.h"
#include "codec/dct.h"
#include "codec/quant.h"
#include "codec/types.h"
#include "video/frame.h"

namespace dive::codec {

constexpr int kBlocksPerMb = 6;  ///< 4 luma 8x8 + U + V

struct FrameHeader {
  FrameType type = FrameType::kIntra;
  int base_qp = 0;
  int mb_cols = 0;
  int mb_rows = 0;
};

/// Writes `h` to `sink`: a BitWriter, or a BitCounter to size it.
template <class Sink>
void write_frame_header(Sink& sink, const FrameHeader& h) {
  sink.put_bits(0xD1, 8);  // magic
  sink.put_bit(h.type == FrameType::kInter);
  sink.put_bits(static_cast<std::uint32_t>(h.base_qp), 6);
  sink.put_ue(static_cast<std::uint32_t>(h.mb_cols));
  sink.put_ue(static_cast<std::uint32_t>(h.mb_rows));
}

/// Parses and validates a frame header against the decoder's current
/// reference (null when it has none). Throws BitstreamError on a bad
/// magic, an out-of-range QP or geometry, or a frame size that differs
/// from the reference's.
inline FrameHeader read_frame_header(BitReader& br,
                                     const video::Frame* reference) {
  if (br.get_bits(8) != 0xD1) throw BitstreamError("Decoder: bad magic");
  FrameHeader h;
  h.type = br.get_bit() ? FrameType::kInter : FrameType::kIntra;
  h.base_qp = static_cast<int>(br.get_bits(6));
  if (h.base_qp < kMinQp || h.base_qp > kMaxQp)
    throw BitstreamError("Decoder: base QP out of range");
  const std::uint32_t cols = br.get_ue();
  const std::uint32_t rows = br.get_ue();
  if (cols == 0 || rows == 0 || cols > 1024 || rows > 1024)
    throw BitstreamError("Decoder: implausible frame geometry");
  h.mb_cols = static_cast<int>(cols);
  h.mb_rows = static_cast<int>(rows);
  if (reference != nullptr &&
      (reference->width() != h.mb_cols * kMacroblockSize ||
       reference->height() != h.mb_rows * kMacroblockSize))
    throw BitstreamError("Decoder: frame size changed mid-stream");
  return h;
}

/// Pixel origin and plane (0 = Y, 1 = U, 2 = V) of one coded 8x8 block.
struct MbBlock {
  int bx, by;
  int plane;
};

/// The six coded blocks of macroblock (col, row), in bitstream order.
inline std::array<MbBlock, kBlocksPerMb> mb_blocks(int col, int row) {
  const int px = col * kMacroblockSize;
  const int py = row * kMacroblockSize;
  const int cx = px / 2;
  const int cy = py / 2;
  return {{{px, py, 0},
           {px + 8, py, 0},
           {px, py + 8, 0},
           {px + 8, py + 8, 0},
           {cx, cy, 1},
           {cx, cy, 2}}};
}

inline video::Plane& plane_of(video::Frame& f, int plane) {
  return plane == 0 ? f.y : (plane == 1 ? f.u : f.v);
}
inline const video::Plane& plane_of(const video::Frame& f, int plane) {
  return plane == 0 ? f.y : (plane == 1 ? f.u : f.v);
}

/// The vector an MV is coded against: the left neighbour's coded MV,
/// zero at the start of each row. `field` holds the coded MVs.
inline MotionVector predicted_mv(const MotionField& field, int col, int row) {
  return col > 0 ? field.at(col - 1, row) : MotionVector{};
}

/// Chroma planes are half resolution: halve the half-pel units.
inline MotionVector chroma_mv(MotionVector mv) {
  return {mv.dx / 2, mv.dy / 2};
}

/// DC intra prediction (H.264-style): every sample is the mean of the
/// reconstructed samples above and left of the 8x8 block at (bx, by),
/// 128 when it has neither. The at most 16 samples are summed as an int
/// and divided once as a double, which is exact: the sum is an exact
/// double.
inline Block8x8 dc_predict(const video::Plane& recon, int bx, int by) {
  int acc = 0;
  int n = 0;
  if (by > 0) {
    for (int x = 0; x < kBlockSize; ++x) {
      acc += recon.at(bx + x, by - 1);
      ++n;
    }
  }
  if (bx > 0) {
    for (int y = 0; y < kBlockSize; ++y) {
      acc += recon.at(bx - 1, by + y);
      ++n;
    }
  }
  Block8x8 pred;
  pred.fill(n > 0 ? static_cast<double>(acc) / n : 128.0);
  return pred;
}

/// Motion-compensated 8x8 prediction of the block at (bx, by) displaced
/// by `mv` (half-pel units of `ref`), computed on demand from the
/// reference plane as u8 samples into `dst` (rows `dst_stride` bytes
/// apart): sample (i, j) is half_pel_sample(ref, 2*(bx+i) - mv.dx,
/// 2*(by+j) - mv.dy), exactly what RefPlanes::block reads. A block whose
/// reads all fall inside the plane takes raw row pointers. Border blocks
/// and hostile vectors first copy the 9x9 window they read with every
/// read clamped, then take the same row loops over that window.
inline void mc_predict_u8(const video::Plane& ref, int bx, int by,
                          MotionVector mv, std::uint8_t* dst,
                          int dst_stride) {
  constexpr int n = kBlockSize;
  const int fx = mv.dx & 1;
  const int fy = mv.dy & 1;
  const int ox = bx + ((-mv.dx) >> 1);
  const int oy = by + ((-mv.dy) >> 1);
  std::ptrdiff_t stride = ref.width;
  const std::uint8_t* top = nullptr;
  std::array<std::uint8_t, (n + 1) * (n + 1)> window;
  if (ox < 0 || oy < 0 || ox + n + fx > ref.width ||
      oy + n + fy > ref.height) {
    for (int j = 0; j <= n; ++j)
      for (int i = 0; i <= n; ++i)
        window[static_cast<std::size_t>(j * (n + 1) + i)] =
            ref.at_clamped(ox + i, oy + j);
    top = window.data();
    stride = n + 1;
  } else {
    top = ref.data.data() + oy * stride + ox;
  }
  // Runs `row(a, c, d)` for each block row: a is the reference row, c the
  // row below it when fy (a itself otherwise), d the output row.
  const auto rows = [&](auto row) {
    const std::uint8_t* a = top;
    for (int j = 0; j < n; ++j, a += stride, dst += dst_stride)
      row(a, a + fy * stride, dst);
  };
  switch (2 * fy + fx) {
    case 0:
      rows([](const std::uint8_t* a, const std::uint8_t*, std::uint8_t* d) {
        std::memcpy(d, a, n);
      });
      break;
    case 1:
      rows([](const std::uint8_t* a, const std::uint8_t*, std::uint8_t* d) {
        for (int i = 0; i < n; ++i)
          d[i] = static_cast<std::uint8_t>((a[i] + a[i + 1] + 1) >> 1);
      });
      break;
    case 2:
      rows([](const std::uint8_t* a, const std::uint8_t* c, std::uint8_t* d) {
        for (int i = 0; i < n; ++i)
          d[i] = static_cast<std::uint8_t>((a[i] + c[i] + 1) >> 1);
      });
      break;
    default:
      rows([](const std::uint8_t* a, const std::uint8_t* c, std::uint8_t* d) {
        for (int i = 0; i < n; ++i)
          d[i] = static_cast<std::uint8_t>(
              (a[i] + a[i + 1] + c[i] + c[i + 1] + 2) >> 2);
      });
      break;
  }
}

/// A macroblock's 16x16 luma prediction, rows kMacroblockSize apart;
/// luma block b (0..3, in mb_blocks order) starts at mb_luma_offset(b).
using MbLuma = std::array<std::uint8_t, kMacroblockSize * kMacroblockSize>;
constexpr int mb_luma_offset(int b) {
  return (b >> 1) * kBlockSize * kMacroblockSize + (b & 1) * kBlockSize;
}

/// Luma prediction of macroblock (col, row) at `mv`: its four 8x8 blocks
/// by mc_predict_u8.
inline void predict_mb_luma(const video::Plane& ref, int col, int row,
                            MotionVector mv, MbLuma& dst) {
  for (int b = 0; b < 4; ++b)
    mc_predict_u8(ref, col * kMacroblockSize + (b & 1) * kBlockSize,
                  row * kMacroblockSize + (b >> 1) * kBlockSize, mv,
                  dst.data() + mb_luma_offset(b), kMacroblockSize);
}

/// Motion-compensated predictions of the six blocks of macroblock
/// (col, row) coded with luma vector `mv`, into `preds[0..5]`, all by
/// mc_predict_u8 from `ref`. `luma`, when given, is predict_mb_luma's
/// output at this same `mv` and is reused instead of predicting again.
inline void predict_inter_mb(const video::Frame& ref, int col, int row,
                             MotionVector mv, Block8x8* preds,
                             const MbLuma* luma = nullptr) {
  MbLuma own;
  if (luma == nullptr) {
    predict_mb_luma(ref.y, col, row, mv, own);
    luma = &own;
  }
  for (int b = 0; b < 4; ++b)
    load_block_u8(luma->data() + mb_luma_offset(b), kMacroblockSize,
                  preds[b]);
  const auto blocks = mb_blocks(col, row);
  for (int b = 4; b < kBlocksPerMb; ++b) {
    const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
    std::array<std::uint8_t, kBlockSize * kBlockSize> px;
    mc_predict_u8(plane_of(ref, blk.plane), blk.bx, blk.by, chroma_mv(mv),
                  px.data(), kBlockSize);
    load_block_u8(px.data(), kBlockSize, preds[b]);
  }
}

/// Reconstructs one 8x8 block into `recon`: the prediction plus, when
/// `levels` is given, its dequantized inverse transform, clamped to u8.
inline void reconstruct_block(video::Plane& recon, int bx, int by,
                              const Block8x8& pred, const QuantBlock* levels,
                              int qp) {
  Block8x8 res;
  if (levels != nullptr) {
    Block8x8 deq;
    dequantize(*levels, qp, deq);
    inverse_dct(deq, res);
  }
  store_block_u8(pred, levels != nullptr ? &res : nullptr,
                 &recon.at(bx, by), recon.width);
}

/// Reconstructs the six blocks of an inter macroblock from
/// `preds[0..5]`; block b adds `levels[b]` when bit b of `cbp` is set
/// and is the bare prediction otherwise (SKIP: `cbp` = 0).
inline void reconstruct_inter_mb(video::Frame& recon, int col, int row,
                                 const Block8x8* preds,
                                 const QuantBlock* levels, int cbp, int qp) {
  const auto blocks = mb_blocks(col, row);
  for (int b = 0; b < kBlocksPerMb; ++b) {
    const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
    reconstruct_block(plane_of(recon, blk.plane), blk.bx, blk.by, preds[b],
                      (cbp & (1 << b)) != 0 ? &levels[b] : nullptr, qp);
  }
}

}  // namespace dive::codec
