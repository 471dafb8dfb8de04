#include "codec/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dive::codec {

const QuantStep& quant_step(int qp) {
  static const std::array<QuantStep, kMaxQp + 1> table = [] {
    std::array<QuantStep, kMaxQp + 1> t{};
    for (int q = kMinQp; q <= kMaxQp; ++q) {
      const double step = 0.625 * std::pow(2.0, static_cast<double>(q) / 6.0);
      t[static_cast<std::size_t>(q)] = {step, step / 6.0};
    }
    return t;
  }();
  return table[static_cast<std::size_t>(std::clamp(qp, kMinQp, kMaxQp))];
}

std::uint64_t quantize(const Block8x8& coeffs, int qp, QuantBlock& levels) {
  const QuantStep& q = quant_step(qp);
  // Most coefficients of a residual block lie inside the dead zone, so
  // find the rest first (branch-free, a byte of the mask at a time so the
  // shifts are constants) and divide only those.
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < 64; i += 8) {
    std::uint64_t byte = 0;
    for (std::size_t j = 0; j < 8; ++j)
      byte |= static_cast<std::uint64_t>(std::abs(coeffs[i + j]) > q.deadzone)
              << j;
    live |= byte << i;
  }
  levels.fill(0);
  std::uint64_t nonzero = 0;
  for (; live != 0; live &= live - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(live));
    // Round half away from zero, exactly as std::lround: the quotient
    // minus its truncation is its exact fractional part.
    const double x = coeffs[i] / q.step;
    const auto t = static_cast<std::int32_t>(x);
    const double frac = x - static_cast<double>(t);
    const std::int32_t level =
        t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
    levels[i] = level;
    nonzero |= static_cast<std::uint64_t>(level != 0) << i;
  }
  return nonzero;
}

void dequantize(const QuantBlock& levels, int qp, Block8x8& coeffs) {
  const double step = quant_step(qp).step;
  for (int i = 0; i < 64; ++i) {
    coeffs[static_cast<std::size_t>(i)] =
        static_cast<double>(levels[static_cast<std::size_t>(i)]) * step;
  }
}

const std::array<int, 64>& zigzag_order() {
  static const std::array<int, 64> order = [] {
    std::array<int, 64> o{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {
        // Walk up-right.
        for (int y = std::min(s, 7); y >= std::max(0, s - 7); --y)
          o[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
      } else {
        for (int x = std::min(s, 7); x >= std::max(0, s - 7); --x)
          o[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
      }
    }
    return o;
  }();
  return order;
}

const std::array<int, 64>& zigzag_rank() {
  static const std::array<int, 64> rank = [] {
    std::array<int, 64> r{};
    const auto& zz = zigzag_order();
    for (int i = 0; i < 64; ++i)
      r[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])] = i;
    return r;
  }();
  return rank;
}

}  // namespace dive::codec
