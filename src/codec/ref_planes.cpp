#include "codec/ref_planes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dive::codec {

RefPlanes::RefPlanes(const video::Plane& src, int pad)
    : width_(src.width),
      height_(src.height),
      pad_(std::max(pad, kMacroblockSize)),
      stride_(src.width + 2 * pad_) {
  if (width_ <= 0 || height_ <= 0)
    throw std::invalid_argument("RefPlanes: empty reference plane");
  const int rows = height_ + 2 * pad_;
  const std::size_t plane_size =
      static_cast<std::size_t>(stride_) * static_cast<std::size_t>(rows);
  // Every byte is written below, so skip value-initialization.
  storage_ = std::make_unique_for_overwrite<std::uint8_t[]>(4 * plane_size);
  std::array<std::uint8_t*, 4> p{};
  for (std::size_t k = 0; k < p.size(); ++k) {
    p[k] = storage_.get() + k * plane_size;
    planes_[k] = p[k];
  }
  const auto row = [&](std::size_t k, int r) {
    return p[k] + static_cast<std::ptrdiff_t>(r) * stride_;
  };

  // Full-pel plane: the source with its border rows and columns
  // replicated — at_clamped, precomputed.
  for (int r = 0; r < rows; ++r) {
    const int y = std::clamp(r - pad_, 0, height_ - 1);
    const std::uint8_t* s = &src.data[static_cast<std::size_t>(y) * width_];
    std::uint8_t* d = row(0, r);
    std::memset(d, s[0], static_cast<std::size_t>(pad_));
    std::memcpy(d + pad_, s, static_cast<std::size_t>(width_));
    std::memset(d + pad_ + width_, s[width_ - 1],
                static_cast<std::size_t>(pad_));
  }

  // Half-pel planes from the padded full-pel plane. The last column and
  // row lie in the replicated border, where the right / lower neighbour
  // equals the sample itself, so pairing them with themselves is exactly
  // the clamped read.
  const int last = stride_ - 1;
  for (int r = 0; r < rows; ++r) {
    const std::uint8_t* a = row(0, r);
    const std::uint8_t* c = row(0, std::min(r + 1, rows - 1));
    std::uint8_t* h = row(1, r);
    std::uint8_t* v = row(2, r);
    std::uint8_t* d = row(3, r);
    for (int i = 0; i < last; ++i) {
      h[i] = static_cast<std::uint8_t>((a[i] + a[i + 1] + 1) >> 1);
      v[i] = static_cast<std::uint8_t>((a[i] + c[i] + 1) >> 1);
      d[i] = static_cast<std::uint8_t>(
          (a[i] + a[i + 1] + c[i] + c[i + 1] + 2) >> 2);
    }
    h[last] = a[last];
    v[last] = static_cast<std::uint8_t>((a[last] + c[last] + 1) >> 1);
    d[last] = v[last];  // (2a + 2c + 2) >> 2 == (a + c + 1) >> 1
  }
}

}  // namespace dive::codec
