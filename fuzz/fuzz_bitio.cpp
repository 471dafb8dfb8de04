// Fuzz target: BitWriter, BitCounter and BitReader must agree.
//
// The input is an op sequence. Each op is one tag byte plus a big-endian
// payload; the sequence ends at the first op whose payload is cut off:
//   tag % 4 == 0  put_bit   bit = (tag >> 2) & 1, no payload
//   tag % 4 == 1  put_bits  count = 1 + (tag >> 2) % 32, 4-byte value
//                           (bits above `count` are ignored)
//   tag % 4 == 2  put_ue    w = (tag >> 2) & 3: w == 0 -> value tag >> 4,
//                           else a 1-, 2- or 4-byte value (w = 1, 2, 3)
//   tag % 4 == 3  put_se    as put_ue; w == 0 -> (tag >> 4) - 8, 1- and
//                           2-byte values are sign-extended (INT32_MIN,
//                           which has no se code, becomes -INT32_MAX)
// For every input: the counter's bit count equals the writer's after each
// op; finish() returns ceil(bits / 8) bytes; the reader returns every
// value and stops on the last bit; the stream without its last byte fails
// with BitstreamError before the last op; and the raw input, read as a
// stream with the same op kinds, parses or throws BitstreamError only.
//
// Seed corpus: fuzz/corpus/bitio, from gen_corpus.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "codec/bitstream.h"
#include "fuzz_driver.h"

namespace {

using dive::codec::BitCounter;
using dive::codec::BitReader;
using dive::codec::BitstreamError;
using dive::codec::BitWriter;

struct Op {
  int kind = 0;  ///< 0 bit, 1 bits, 2 ue, 3 se
  int count = 0;
  std::uint32_t value = 0;  ///< the value a reader must return
};

std::vector<Op> parse_ops(std::span<const std::uint8_t> in) {
  std::vector<Op> ops;
  std::size_t pos = 0;
  const auto payload = [&](std::size_t n, std::uint32_t& v) {
    if (in.size() - pos < n) return false;
    v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | in[pos++];
    return true;
  };
  while (pos < in.size()) {
    const std::uint8_t tag = in[pos++];
    Op op{tag % 4};
    std::uint32_t v = 0;
    if (op.kind == 0) {
      op.value = (tag >> 2) & 1U;
    } else if (op.kind == 1) {
      op.count = 1 + (tag >> 2) % 32;
      if (!payload(4, v)) break;
      op.value = op.count == 32 ? v : v & ((1U << op.count) - 1U);
    } else {
      const int w = (tag >> 2) & 3;
      const std::size_t bytes = w == 3 ? 4 : static_cast<std::size_t>(w);
      if (!payload(bytes, v)) break;
      if (w == 0) v = tag >> 4;
      if (op.kind == 3) {
        std::int32_t s = 0;
        if (w == 0) s = static_cast<std::int32_t>(v) - 8;
        else if (w == 1) s = static_cast<std::int8_t>(v);
        else if (w == 2) s = static_cast<std::int16_t>(v);
        else s = static_cast<std::int32_t>(v);
        if (s == std::numeric_limits<std::int32_t>::min())
          s = -std::numeric_limits<std::int32_t>::max();
        v = static_cast<std::uint32_t>(s);
      }
      op.value = v;
    }
    ops.push_back(op);
  }
  return ops;
}

template <class Sink>
void put(Sink& sink, const Op& op) {
  switch (op.kind) {
    case 0: sink.put_bit(op.value != 0); break;
    case 1: sink.put_bits(op.value, op.count); break;
    case 2: sink.put_ue(op.value); break;
    default: sink.put_se(static_cast<std::int32_t>(op.value)); break;
  }
}

std::uint32_t get(BitReader& br, const Op& op) {
  switch (op.kind) {
    case 0: return br.get_bit() ? 1U : 0U;
    case 1: return br.get_bits(op.count);
    case 2: return br.get_ue();
    default: return static_cast<std::uint32_t>(br.get_se());
  }
}

void check(bool ok) {
  if (!ok) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  const std::vector<Op> ops = parse_ops(input);

  BitWriter bw;
  BitCounter bc;
  for (const Op& op : ops) {
    put(bw, op);
    put(bc, op);
    check(bw.bit_count() == bc.bit_count());
  }
  const std::vector<std::uint8_t> bytes = bw.finish();
  check(bytes.size() == bc.byte_count());

  BitReader br(bytes);
  for (const Op& op : ops) check(get(br, op) == op.value);
  check(br.bits_consumed() == bc.bit_count());

  // Without its last byte the stream misses at least one coded bit.
  if (!bytes.empty()) {
    BitReader cut(std::span<const std::uint8_t>(bytes).first(bytes.size() - 1));
    bool threw = false;
    for (const Op& op : ops) {
      try {
        check(get(cut, op) == op.value);
      } catch (const BitstreamError&) {
        threw = true;
        break;
      }
    }
    check(threw);
  }

  // The raw input as a hostile stream: values are arbitrary, but the only
  // failure allowed is BitstreamError.
  BitReader raw(input);
  try {
    for (const Op& op : ops) (void)get(raw, op);
  } catch (const BitstreamError&) {
  }
  return 0;
}
