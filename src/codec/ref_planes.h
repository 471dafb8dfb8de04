// Padded half-pel reference planes: how motion search reads a luma
// reference many times over (SAD/SATD of every candidate). Every other
// reader touches a block once or twice — the encoder's SKIP check and
// motion compensation, and the decoder — and computes the same samples
// on demand with mc_predict_u8 (codec/reconstruct.h) instead of paying
// for four padded planes.
//
// A RefPlanes holds four planes built from one reference plane, each a
// replicated-border copy padded by `pad` samples on every side. Plane
// k = 2*fy + fx holds the half-pel phase (fx, fy):
//
//   k = 0  full-pel     a
//   k = 1  horizontal   (a + b + 1) >> 1
//   k = 2  vertical     (a + c + 1) >> 1
//   k = 3  diagonal     (a + b + c + d + 2) >> 2
//
// with a = ref(X, Y), b = ref(X+1, Y), c = ref(X, Y+1), d = ref(X+1, Y+1)
// and every read clamped to the plane border. Sample (X, Y) of plane k is
// therefore exactly half_pel_sample(ref, 2X + fx, 2Y + fy) for every X, Y
// in the padded area (the property test pins this), and a 16x16 block
// displaced by any half-pel vector is a plain strided pointer into one
// plane — the dispatched SAD kernel covers half-pel candidates and border
// blocks alike.
//
// Why no read needs a clamped fallback: outside the source plane every
// plane is constant along the padded axis (columns X <= -1 all equal
// column -1, columns X >= W-1 all equal column W-1, likewise rows), so a
// block origin past the pad can be clamped to the pad's edge without
// changing one sample, provided the pad is at least one block (16). That
// covers vectors of any length.
//
// Memory: four padded planes per reference plane. They are scratch of
// one MotionSearcher::search_frame call — built at its start and dropped
// when it returns, never kept as per-encoder state (many sessions share
// one host).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "codec/types.h"
#include "video/frame.h"

namespace dive::codec {

class RefPlanes {
 public:
  /// Builds the four padded planes of `src`. `pad` is raised to at least
  /// one macroblock (the origin-clamp exactness bound).
  RefPlanes(const video::Plane& src, int pad);

  /// First sample of the block whose top-left pixel is (x, y), displaced
  /// by `mv` (half-pel units of this plane) — i.e. sample (i, j) of the
  /// block is half_pel_sample(src, 2*(x+i) - mv.dx, 2*(y+j) - mv.dy) for
  /// blocks up to 16x16. Rows are stride() bytes apart.
  [[nodiscard]] const std::uint8_t* block(int x, int y,
                                          MotionVector mv) const {
    const int k = 2 * (mv.dy & 1) + (mv.dx & 1);
    const int ox = clamp_origin(x + ((-mv.dx) >> 1), width_);
    const int oy = clamp_origin(y + ((-mv.dy) >> 1), height_);
    return planes_[static_cast<std::size_t>(k)] +
           static_cast<std::ptrdiff_t>(oy + pad_) * stride_ + (ox + pad_);
  }

  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int pad() const { return pad_; }

 private:
  [[nodiscard]] int clamp_origin(int o, int extent) const {
    const int lo = -pad_;
    const int hi = extent + pad_ - kMacroblockSize;
    return o < lo ? lo : (o > hi ? hi : o);
  }

  int width_;
  int height_;
  int pad_;
  int stride_;
  std::unique_ptr<std::uint8_t[]> storage_;  ///< the four planes, back to back
  std::array<const std::uint8_t*, 4> planes_{};
};

}  // namespace dive::codec
