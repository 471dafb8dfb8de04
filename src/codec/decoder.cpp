#include "codec/decoder.h"

#include <algorithm>
#include <optional>

#include "codec/bitstream.h"
#include "codec/block_io.h"
#include "codec/dct.h"
#include "codec/quant.h"
#include "codec/ref_planes.h"

namespace dive::codec {

namespace {

constexpr int kMb = kMacroblockSize;

std::uint8_t clamp_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

double dc_predict(const video::Plane& recon, int bx, int by) {
  double acc = 0.0;
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
  return n > 0 ? acc / n : 128.0;
}

void add_residual_and_store(video::Plane& out, int bx, int by,
                            const double* pred /*64*/,
                            const QuantBlock* levels, int qp) {
  Block8x8 res{};
  if (levels != nullptr) {
    Block8x8 deq;
    dequantize(*levels, qp, deq);
    inverse_dct(deq, res);
  }
  for (int y = 0; y < kBlockSize; ++y)
    for (int x = 0; x < kBlockSize; ++x)
      out.at(bx + x, by + y) =
          clamp_pixel(pred[y * kBlockSize + x] + res[static_cast<std::size_t>(y * kBlockSize + x)]);
}

void mc_predict(const RefPlanes& ref, int bx, int by, MotionVector mv,
                double* pred /*64*/) {
  // `mv` is in half-pel units of this plane; the same planes the encoder
  // predicted from, so prediction matches it exactly.
  const std::uint8_t* r = ref.block(bx, by, mv);
  const int stride = ref.stride();
  for (int y = 0; y < kBlockSize; ++y)
    for (int x = 0; x < kBlockSize; ++x)
      pred[y * kBlockSize + x] = static_cast<double>(r[y * stride + x]);
}

}  // namespace

DecodedFrame Decoder::decode(std::span<const std::uint8_t> data) {
  BitReader br(data);
  if (br.get_bits(8) != 0xD1)
    throw BitstreamError("Decoder: bad magic");
  const FrameType type = br.get_bit() ? FrameType::kInter : FrameType::kIntra;
  const int base_qp = static_cast<int>(br.get_bits(6));
  if (base_qp < kMinQp || base_qp > kMaxQp)
    throw BitstreamError("Decoder: base QP out of range");
  const int mb_cols = static_cast<int>(br.get_ue());
  const int mb_rows = static_cast<int>(br.get_ue());
  if (mb_cols <= 0 || mb_rows <= 0 || mb_cols > 1024 || mb_rows > 1024)
    throw BitstreamError("Decoder: implausible frame geometry");
  if (type == FrameType::kInter && !has_reference_)
    throw BitstreamError("Decoder: inter frame without reference");

  const int width = mb_cols * kMb;
  const int height = mb_rows * kMb;
  if (has_reference_ &&
      (reference_.width() != width || reference_.height() != height))
    throw BitstreamError("Decoder: frame size changed mid-stream");

  DecodedFrame out;
  out.type = type;
  out.base_qp = base_qp;
  out.frame = video::Frame(width, height);
  out.motion = MotionField(mb_cols, mb_rows);

  // Reference planes are scratch of this call, never decoder state. Any
  // pad of at least one macroblock reads every vector exactly (the
  // origin clamp covers the rest), so the decoder takes the smallest.
  std::optional<RefPlanes> ref_y, ref_u, ref_v;
  if (type == FrameType::kInter) {
    ref_y.emplace(reference_.y, kMb);
    ref_u.emplace(reference_.u, kMb);
    ref_v.emplace(reference_.v, kMb);
  }

  double pred[64];
  QuantBlock levels;
  int prev_qp = base_qp;

  for (int row = 0; row < mb_rows; ++row) {
    for (int col = 0; col < mb_cols; ++col) {
      const int px = col * kMb;
      const int py = row * kMb;
      const int cx = px / 2;
      const int cy = py / 2;

      if (type == FrameType::kInter) {
        // SKIP bit: the macroblock moves with the PREDICTED motion vector
        // (left neighbor, zero at the row start) and carries no residual
        // — copy the reference at that displacement.
        const bool skip = br.get_bit();
        const MotionVector pred_mv =
            col > 0 ? out.motion.at(col - 1, row) : MotionVector{};
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
          // overflow; RefPlanes clamps the origin of anything past its
          // pad.
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
        const MotionVector cmv{mv.dx / 2, mv.dy / 2};

        struct B {
          const RefPlanes* ref;
          video::Plane* dst;
          int bx, by;
          MotionVector mv;
        };
        const B blocks[6] = {
            {&*ref_y, &out.frame.y, px, py, mv},
            {&*ref_y, &out.frame.y, px + 8, py, mv},
            {&*ref_y, &out.frame.y, px, py + 8, mv},
            {&*ref_y, &out.frame.y, px + 8, py + 8, mv},
            {&*ref_u, &out.frame.u, cx, cy, cmv},
            {&*ref_v, &out.frame.v, cx, cy, cmv},
        };
        for (int b = 0; b < 6; ++b) {
          mc_predict(*blocks[b].ref, blocks[b].bx, blocks[b].by, blocks[b].mv,
                     pred);
          const bool coded = (cbp & (1 << b)) != 0;
          if (coded) read_block(br, levels);
          add_residual_and_store(*blocks[b].dst, blocks[b].bx, blocks[b].by,
                                 pred, coded ? &levels : nullptr, qp);
        }
      } else {
        const std::int64_t qp64 =
            static_cast<std::int64_t>(prev_qp) + br.get_se();
        if (qp64 < kMinQp || qp64 > kMaxQp)
          throw BitstreamError("Decoder: QP out of range");
        const int qp = static_cast<int>(qp64);
        prev_qp = qp;

        struct B {
          video::Plane* dst;
          int bx, by;
        };
        const B blocks[6] = {
            {&out.frame.y, px, py},       {&out.frame.y, px + 8, py},
            {&out.frame.y, px, py + 8},   {&out.frame.y, px + 8, py + 8},
            {&out.frame.u, cx, cy},       {&out.frame.v, cx, cy},
        };
        for (const auto& blk : blocks) {
          const double dc = dc_predict(*blk.dst, blk.bx, blk.by);
          for (double& p : pred) p = dc;
          const bool coded = br.get_bit();
          if (coded) read_block(br, levels);
          add_residual_and_store(*blk.dst, blk.bx, blk.by, pred,
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
