// Planar YUV 4:2:0 frame — the pixel currency of the whole system.
// The renderer produces frames, the codec encodes/decodes them, and the
// edge detector consumes them.
#pragma once

#include <cstdint>
#include <vector>

namespace dive::video {

/// One image plane of 8-bit samples.
struct Plane {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> data;

  Plane() = default;
  Plane(int w, int h, std::uint8_t fill = 0)
      : width(w), height(h),
        data(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), fill) {}

  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return data[static_cast<std::size_t>(y) * width + x];
  }
  std::uint8_t& at(int x, int y) {
    return data[static_cast<std::size_t>(y) * width + x];
  }
  /// Clamped read — out-of-frame coordinates return the nearest edge
  /// sample (used by motion search near borders).
  [[nodiscard]] std::uint8_t at_clamped(int x, int y) const {
    x = x < 0 ? 0 : (x >= width ? width - 1 : x);
    y = y < 0 ? 0 : (y >= height ? height - 1 : y);
    return at(x, y);
  }

  [[nodiscard]] std::size_t size() const { return data.size(); }
  bool operator==(const Plane&) const = default;
};

/// YUV 4:2:0: full-resolution luma, half-resolution chroma.
/// Luma dimensions must be even.
struct Frame {
  Plane y;
  Plane u;
  Plane v;

  Frame() = default;
  Frame(int width, int height)
      : y(width, height, 16),
        u(width / 2, height / 2, 128),
        v(width / 2, height / 2, 128) {}

  [[nodiscard]] int width() const { return y.width; }
  [[nodiscard]] int height() const { return y.height; }
  [[nodiscard]] bool empty() const { return y.data.empty(); }
  [[nodiscard]] std::size_t byte_size() const {
    return y.size() + u.size() + v.size();
  }
  bool operator==(const Frame&) const = default;
};

}  // namespace dive::video
