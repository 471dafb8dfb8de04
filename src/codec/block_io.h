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

/// A raster nonzero mask (bit i set when levels[i] != 0, as quantize()
/// returns it) moved to zigzag scan positions.
inline std::uint64_t zigzag_scan(std::uint64_t raster) {
  const auto& rank = zigzag_rank();
  std::uint64_t scan = 0;
  for (; raster != 0; raster &= raster - 1)
    scan |= std::uint64_t{1} << rank[static_cast<std::size_t>(
                std::countr_zero(raster))];
  return scan;
}

/// Writes `levels` to `sink` (a BitWriter, or a BitCounter to size it)
/// from `scan`, the block's nonzero levels by zigzag position: the count
/// is its popcount and each (run, level) pair is read off one set bit.
template <class Sink>
void write_block(Sink& sink, const QuantBlock& levels, std::uint64_t scan) {
  const auto& zz = zigzag_order();
  sink.put_ue(static_cast<std::uint32_t>(std::popcount(scan)));
  for (int next = 0; scan != 0; scan &= scan - 1) {
    const int pos = std::countr_zero(scan);
    sink.put_ue(static_cast<std::uint32_t>(pos - next));
    sink.put_se(
        levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(pos)])]);
    next = pos + 1;
  }
}

/// The definition write_block implements: walks all 64 zigzag positions.
/// Kept as the reference the differential suite compares against.
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

/// quantize() fused with sizing: fills `levels` and `scan` (the nonzero
/// levels by zigzag position, for write_block) and returns the length in
/// bits of write_block(levels, scan), or 0 when every level is zero (the
/// block is not coded). Only the zero runs depend on the scan order, so
/// they are read off the set bits of `scan`. The differential suite
/// checks the result against write_block_reference into a BitWriter.
inline int quantize_block_bits(const Block8x8& coeffs, int qp,
                               QuantBlock& levels, std::uint64_t& scan) {
  std::uint64_t nonzero = quantize(coeffs, qp, levels);
  scan = 0;
  if (nonzero == 0) return 0;
  const auto& rank = zigzag_rank();
  int bits =
      BitWriter::ue_bits(static_cast<std::uint32_t>(std::popcount(nonzero)));
  for (; nonzero != 0; nonzero &= nonzero - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(nonzero));
    scan |= std::uint64_t{1} << rank[i];
    bits += BitWriter::se_bits(levels[i]);
  }
  std::uint64_t rest = scan;
  for (int next = 0; rest != 0; rest &= rest - 1) {
    const int pos = std::countr_zero(rest);
    bits += BitWriter::ue_bits(static_cast<std::uint32_t>(pos - next));
    next = pos + 1;
  }
  return bits;
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
