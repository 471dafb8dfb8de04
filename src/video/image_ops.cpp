#include "video/image_ops.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "video/sse_kernels.h"

namespace dive::video {

std::uint64_t plane_sse(const Plane& a, const Plane& b) {
  if (a.width != b.width || a.height != b.height)
    throw std::invalid_argument("plane_sse: dimension mismatch");
  if (a.data.empty()) return 0;
  return sse_u8_fn()(a.data.data(), b.data.data(), a.data.size());
}

double plane_mse(const Plane& a, const Plane& b) {
  // Integer SSE then one division: squared byte differences are exact in
  // u64, so this is bit-identical to the old double accumulation (which
  // was itself exact — the sum stays far below 2^53) on every kernel.
  if (a.width != b.width || a.height != b.height)
    throw std::invalid_argument("plane_mse: dimension mismatch");
  if (a.data.empty()) return 0.0;
  return static_cast<double>(plane_sse(a, b)) /
         static_cast<double>(a.data.size());
}

namespace {
double mse_to_psnr(double mse) {
  if (mse <= 1e-12) return 100.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}
}  // namespace

double psnr_y(const Frame& a, const Frame& b) {
  return mse_to_psnr(plane_mse(a.y, b.y));
}

double mean_abs_diff_y(const Frame& a, const Frame& b) {
  if (a.width() != b.width() || a.height() != b.height())
    throw std::invalid_argument("mean_abs_diff_y: dimension mismatch");
  if (a.y.data.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.y.data.size(); ++i) {
    acc += std::abs(static_cast<int>(a.y.data[i]) - static_cast<int>(b.y.data[i]));
  }
  return acc / static_cast<double>(a.y.data.size());
}

double region_mean(const Plane& p, int x0, int y0, int x1, int y1) {
  x0 = std::clamp(x0, 0, p.width);
  x1 = std::clamp(x1, 0, p.width);
  y0 = std::clamp(y0, 0, p.height);
  y1 = std::clamp(y1, 0, p.height);
  if (x1 <= x0 || y1 <= y0) return 0.0;
  double acc = 0.0;
  for (int y = y0; y < y1; ++y)
    for (int x = x0; x < x1; ++x) acc += p.at(x, y);
  return acc / (static_cast<double>(x1 - x0) * (y1 - y0));
}

void draw_box(Frame& frame, const geom::Box& box, std::uint8_t luma) {
  const auto clipped = box.clipped(frame.width(), frame.height());
  const int x0 = static_cast<int>(clipped.x0);
  const int y0 = static_cast<int>(clipped.y0);
  const int x1 = std::max(x0, static_cast<int>(clipped.x1) - 1);
  const int y1 = std::max(y0, static_cast<int>(clipped.y1) - 1);
  if (clipped.empty()) return;
  for (int x = x0; x <= x1; ++x) {
    frame.y.at(x, y0) = luma;
    frame.y.at(x, y1) = luma;
  }
  for (int y = y0; y <= y1; ++y) {
    frame.y.at(x0, y) = luma;
    frame.y.at(x1, y) = luma;
  }
}

std::string to_pgm(const Plane& p) {
  std::ostringstream os;
  os << "P5\n" << p.width << " " << p.height << "\n255\n";
  os.write(reinterpret_cast<const char*>(p.data.data()),
           static_cast<std::streamsize>(p.data.size()));
  return os.str();
}

}  // namespace dive::video
