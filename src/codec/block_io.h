// Serialization of one quantized 8x8 block, shared verbatim by encoder and
// decoder so the two sides cannot drift apart.
//
// Format: nonzero-count (ue) followed by `count` (zero-run ue, level se)
// pairs in zigzag order.
#pragma once

#include <bit>
#include <cstdint>

#include "codec/bitstream.h"
#include "codec/quant.h"

namespace dive::codec {

/// Writes `levels` to `sink` (a BitWriter, or a BitCounter to size it)
/// from `scan`, the mask of the block's nonzero levels by zigzag scan
/// position, as quantize_scan_bits fills both (`levels` in scan order):
/// the count is the mask's popcount and each (run, level) pair is read off
/// one set bit. Only the levels at set bits are read.
template <class Sink>
void write_block(Sink& sink, const QuantBlock& levels, std::uint64_t scan) {
  sink.put_ue(static_cast<std::uint32_t>(std::popcount(scan)));
  for (int next = 0; scan != 0; scan &= scan - 1) {
    const int pos = std::countr_zero(scan);
    sink.put_ue(static_cast<std::uint32_t>(pos - next));
    sink.put_se(levels[static_cast<std::size_t>(pos)]);
    next = pos + 1;
  }
}

/// The definition write_block implements, from raster-order levels: walks
/// all 64 zigzag positions. Kept as the reference the differential suite
/// compares against.
template <class Sink>
void write_block_reference(Sink& sink, const QuantBlock& levels) {
  const auto& zz = zigzag_order();
  int nonzero = 0;
  for (int i = 0; i < 64; ++i)
    if (levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])] != 0)
      ++nonzero;
  sink.put_ue(static_cast<std::uint32_t>(nonzero));
  int run = 0;
  for (int i = 0; i < 64 && nonzero > 0; ++i) {
    const std::int32_t level =
        levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])];
    if (level == 0) {
      ++run;
    } else {
      sink.put_ue(static_cast<std::uint32_t>(run));
      sink.put_se(level);
      run = 0;
      --nonzero;
    }
  }
}

inline void read_block(BitReader& br, QuantBlock& levels) {
  levels.fill(0);
  const auto& zz = zigzag_order();
  const std::uint32_t nonzero = br.get_ue();
  if (nonzero > 64) throw BitstreamError("block: nonzero count > 64");
  int pos = 0;
  for (std::uint32_t k = 0; k < nonzero; ++k) {
    const std::uint32_t run = br.get_ue();
    // Bound the untrusted run before adding it: a run of 2^31 or more
    // would wrap the signed position.
    if (pos >= 64 || run > static_cast<std::uint32_t>(63 - pos))
      throw BitstreamError("block: zigzag overrun");
    pos += static_cast<int>(run);
    const std::int32_t level = br.get_se();
    if (level == 0) throw BitstreamError("block: zero level coded");
    levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(pos)])] = level;
    ++pos;
  }
}

}  // namespace dive::codec
