#include "codec/bitstream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dive::codec {
namespace {

TEST(Bitstream, BitRoundTrip) {
  BitWriter bw;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) bw.put_bit(b);
  const auto data = bw.finish();
  BitReader br(data);
  for (bool b : pattern) EXPECT_EQ(br.get_bit(), b);
}

TEST(Bitstream, FixedWidthRoundTrip) {
  BitWriter bw;
  bw.put_bits(0xABC, 12);
  bw.put_bits(0x3, 2);
  const auto data = bw.finish();
  BitReader br(data);
  EXPECT_EQ(br.get_bits(12), 0xABCu);
  EXPECT_EQ(br.get_bits(2), 0x3u);
}

TEST(Bitstream, UeGolombKnownCodes) {
  // value 0 -> "1" (1 bit), 1 -> "010", 2 -> "011", 3 -> "00100".
  EXPECT_EQ(BitWriter::ue_bits(0), 1);
  EXPECT_EQ(BitWriter::ue_bits(1), 3);
  EXPECT_EQ(BitWriter::ue_bits(2), 3);
  EXPECT_EQ(BitWriter::ue_bits(3), 5);
  EXPECT_EQ(BitWriter::ue_bits(6), 5);
  EXPECT_EQ(BitWriter::ue_bits(7), 7);
}

TEST(Bitstream, UeRoundTripSweep) {
  BitWriter bw;
  for (std::uint32_t v = 0; v < 300; ++v) bw.put_ue(v);
  const auto data = bw.finish();
  BitReader br(data);
  for (std::uint32_t v = 0; v < 300; ++v) EXPECT_EQ(br.get_ue(), v);
}

TEST(Bitstream, SeRoundTripSweep) {
  BitWriter bw;
  for (std::int32_t v = -200; v <= 200; ++v) bw.put_se(v);
  const auto data = bw.finish();
  BitReader br(data);
  for (std::int32_t v = -200; v <= 200; ++v) EXPECT_EQ(br.get_se(), v);
}

TEST(Bitstream, SeBitsMatchesActualWidth) {
  for (std::int32_t v : {-100, -5, -1, 0, 1, 7, 99}) {
    BitWriter bw;
    bw.put_se(v);
    EXPECT_EQ(static_cast<int>(bw.bit_count()), BitWriter::se_bits(v)) << v;
  }
}

TEST(Bitstream, MixedPayloadRandomized) {
  util::Rng rng(77);
  std::vector<std::int32_t> values;
  BitWriter bw;
  for (int i = 0; i < 1000; ++i) {
    const std::int32_t v = rng.uniform_int(-1000, 1000);
    values.push_back(v);
    bw.put_se(v);
  }
  const auto data = bw.finish();
  BitReader br(data);
  for (std::int32_t v : values) EXPECT_EQ(br.get_se(), v);
}

TEST(Bitstream, ReadPastEndThrows) {
  BitWriter bw;
  bw.put_bits(0x5, 3);
  const auto data = bw.finish();
  BitReader br(data);
  br.get_bits(8);  // consumes the padded byte
  EXPECT_THROW(br.get_bit(), BitstreamError);
}

TEST(Bitstream, MalformedUeThrows) {
  // 5 zero bytes: > 32 leading zeros with no terminator.
  const std::vector<std::uint8_t> zeros(5, 0);
  BitReader br(zeros);
  EXPECT_THROW(br.get_ue(), BitstreamError);
}

TEST(Bitstream, BitCountTracksPayload) {
  BitWriter bw;
  bw.put_bit(true);
  bw.put_bits(0, 5);
  EXPECT_EQ(bw.bit_count(), 6u);
  const auto data = bw.finish();
  EXPECT_EQ(data.size(), 1u);  // padded to one byte
}

TEST(Bitstream, OutOfRangeCountsAreRejected) {
  BitWriter bw;
  EXPECT_THROW(bw.put_bits(1, 33), std::invalid_argument);
  EXPECT_THROW(bw.put_bits(1, -1), std::invalid_argument);
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.put_bits(0xFFFFFFFFU, 32);
  bw.put_bits(7, 0);
  EXPECT_EQ(bw.bit_count(), 32u);

  BitCounter bc;
  EXPECT_THROW(bc.put_bits(1, 33), std::invalid_argument);
  EXPECT_THROW(bc.put_bits(1, -1), std::invalid_argument);

  const std::vector<std::uint8_t> data(8, 0xA5);
  BitReader br(data);
  EXPECT_THROW(br.get_bits(33), std::invalid_argument);
  EXPECT_THROW(br.get_bits(-1), std::invalid_argument);
  EXPECT_EQ(br.bits_consumed(), 0u);
  EXPECT_EQ(br.get_bits(0), 0u);
  EXPECT_EQ(br.get_bits(32), 0xA5A5A5A5U);
}

// ---------------------------------------------------------------------------
// Differential check of the word-at-a-time BitWriter/BitReader against a
// bit-at-a-time reference model of the same syntax, kept here only.

enum class OpKind { kBit, kBits, kUe, kSe };

struct Op {
  OpKind kind;
  std::uint32_t value;  ///< bit / bits / ue payload; se stores the int32
  int count = 0;        ///< kBits only
};

struct RefWriter {
  std::vector<bool> bits;
  void put_bit(bool b) { bits.push_back(b); }
  void put_bits(std::uint32_t v, int count) {
    for (int i = count - 1; i >= 0; --i) put_bit(((v >> i) & 1U) != 0);
  }
  void put_ue(std::uint32_t v) {
    const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
    int n = 0;
    while ((code >> n) > 1) ++n;  // code has n + 1 significant bits
    for (int i = 0; i < n; ++i) put_bit(false);
    for (int i = n; i >= 0; --i) put_bit(((code >> i) & 1U) != 0);
  }
  void put_se(std::int32_t v) {
    put_ue(v > 0 ? static_cast<std::uint32_t>(v) * 2 - 1
                 : static_cast<std::uint32_t>(-static_cast<std::int64_t>(v)) *
                       2);
  }
  std::vector<std::uint8_t> bytes() const {
    std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(0x80U >> (i % 8));
    return out;
  }
};

/// The bit-at-a-time reader the codec shipped before, error for error.
struct RefReader {
  std::vector<std::uint8_t> data;
  std::size_t pos = 0;  // bits
  bool get_bit() {
    if (pos >= data.size() * 8)
      throw BitstreamError("BitReader: read past end of stream");
    const bool b = ((data[pos / 8] >> (7 - pos % 8)) & 1U) != 0;
    ++pos;
    return b;
  }
  std::uint32_t get_bits(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | (get_bit() ? 1U : 0U);
    return v;
  }
  std::uint32_t get_ue() {
    int zeros = 0;
    while (!get_bit())
      if (++zeros > 32) throw BitstreamError("BitReader: malformed ue code");
    std::uint64_t code = 1;
    for (int i = 0; i < zeros; ++i) code = (code << 1) | (get_bit() ? 1U : 0U);
    if (code - 1 > 0xFFFFFFFFULL)
      throw BitstreamError("BitReader: ue code exceeds 32 bits");
    return static_cast<std::uint32_t>(code - 1);
  }
  std::int32_t get_se() {
    const std::uint32_t mapped = get_ue();
    if (mapped == 0xFFFFFFFFU)
      throw BitstreamError("BitReader: se code out of range");
    if (mapped % 2 == 1) return static_cast<std::int32_t>((mapped + 1) / 2);
    return -static_cast<std::int32_t>(mapped / 2);
  }
};

std::uint32_t random_u32(util::Rng& rng) {
  // A random bit length first, so short and long codes are both common.
  const int bits = rng.uniform_int(0, 32);
  const auto v = static_cast<std::uint32_t>(rng.engine()());
  return bits == 32 ? v : v & ((1U << bits) - 1U);
}

std::vector<Op> random_ops(util::Rng& rng, int n) {
  constexpr std::uint32_t kUeEdges[] = {0, 1, 65534, 65535, 0x7FFFFFFFU,
                                        0xFFFFFFFEU, 0xFFFFFFFFU};
  constexpr std::int32_t kSeEdges[] = {0, 1, -1,
                                       std::numeric_limits<std::int32_t>::max(),
                                       -std::numeric_limits<std::int32_t>::max()};
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    Op op{static_cast<OpKind>(rng.uniform_int(0, 3)), 0};
    switch (op.kind) {
      case OpKind::kBit: op.value = rng.chance(0.5) ? 1 : 0; break;
      case OpKind::kBits:
        op.count = rng.uniform_int(1, 32);
        op.value = static_cast<std::uint32_t>(rng.engine()());  // high bits ignored
        break;
      case OpKind::kUe:
        op.value = rng.chance(0.2) ? kUeEdges[rng.uniform_int(0, 6)]
                                   : random_u32(rng);
        break;
      case OpKind::kSe: {
        std::int32_t v = 0;
        if (rng.chance(0.2)) {
          v = kSeEdges[rng.uniform_int(0, 4)];
        } else {
          v = static_cast<std::int32_t>(random_u32(rng) >> 1);
          if (rng.chance(0.5)) v = -v;
        }
        op.value = static_cast<std::uint32_t>(v);
        break;
      }
    }
    ops.push_back(op);
  }
  return ops;
}

template <class Sink>
void apply(Sink& sink, const Op& op) {
  switch (op.kind) {
    case OpKind::kBit: sink.put_bit(op.value != 0); break;
    case OpKind::kBits: sink.put_bits(op.value, op.count); break;
    case OpKind::kUe: sink.put_ue(op.value); break;
    case OpKind::kSe: sink.put_se(static_cast<std::int32_t>(op.value)); break;
  }
}

/// The value a correct reader returns for `op`.
std::uint32_t expected(const Op& op) {
  if (op.kind == OpKind::kBits && op.count < 32)
    return op.value & ((1U << op.count) - 1U);
  return op.value;
}

template <class Reader>
std::uint32_t read(Reader& r, const Op& op) {
  switch (op.kind) {
    case OpKind::kBit: return r.get_bit() ? 1U : 0U;
    case OpKind::kBits: return r.get_bits(op.count);
    case OpKind::kUe: return r.get_ue();
    case OpKind::kSe: return static_cast<std::uint32_t>(r.get_se());
  }
  return 0;
}

/// Reads `ops` until the first BitstreamError; returns the values read and
/// the failing op's index and message (none when all were read).
struct ReadOutcome {
  std::vector<std::uint32_t> values;
  std::optional<std::size_t> failed_op;
  std::string message;
};

template <class Reader>
ReadOutcome read_all(Reader& r, const std::vector<Op>& ops) {
  ReadOutcome out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    try {
      out.values.push_back(read(r, ops[i]));
    } catch (const BitstreamError& e) {
      out.failed_op = i;
      out.message = e.what();
      break;
    }
  }
  return out;
}

TEST(Bitstream, WordWriterMatchesBitReferenceOnRandomOps) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const auto ops = random_ops(rng, rng.uniform_int(1, 120));
    BitWriter bw;
    BitCounter bc;
    RefWriter ref;
    for (const Op& op : ops) {
      apply(bw, op);
      apply(bc, op);
      apply(ref, op);
      ASSERT_EQ(bw.bit_count(), ref.bits.size()) << "seed " << seed;
      ASSERT_EQ(bc.bit_count(), ref.bits.size()) << "seed " << seed;
    }
    const auto data = bw.finish();
    ASSERT_EQ(data, ref.bytes()) << "seed " << seed;
    ASSERT_EQ(bc.byte_count(), data.size());

    BitReader br(data);
    for (const Op& op : ops) ASSERT_EQ(read(br, op), expected(op));
    EXPECT_EQ(br.bits_consumed(), ref.bits.size());

    // Every truncation: the reader fails at the same op, with the same
    // message, as the reference, after reading the same values.
    for (std::size_t len = 0; len <= data.size(); ++len) {
      const std::vector<std::uint8_t> cut(data.begin(),
                                          data.begin() + static_cast<long>(len));
      BitReader word(cut);
      RefReader bitwise{cut};
      const ReadOutcome got = read_all(word, ops);
      const ReadOutcome want = read_all(bitwise, ops);
      ASSERT_EQ(got.failed_op, want.failed_op) << "seed " << seed << " len " << len;
      ASSERT_EQ(got.message, want.message);
      ASSERT_EQ(got.values, want.values);
    }
  }
}

TEST(Bitstream, WordReaderMatchesBitReferenceOnHostileBytes) {
  // Zero-heavy random bytes reach every error: 33-zero prefixes, codes
  // over 32 bits, the unrepresentable se code and the end of the stream.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    util::Rng rng(seed);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(rng.uniform_int(0, 24)));
    for (auto& b : data)
      b = rng.chance(0.6) ? 0 : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<Op> ops(64);
    for (auto& op : ops) {
      op.kind = static_cast<OpKind>(rng.uniform_int(0, 3));
      op.count = rng.uniform_int(0, 32);
    }
    BitReader word(data);
    RefReader bitwise{data};
    const ReadOutcome got = read_all(word, ops);
    const ReadOutcome want = read_all(bitwise, ops);
    ASSERT_EQ(got.failed_op, want.failed_op) << "seed " << seed;
    ASSERT_EQ(got.message, want.message) << "seed " << seed;
    ASSERT_EQ(got.values, want.values) << "seed " << seed;
  }
}

TEST(Bitstream, LongestCodesRoundTrip) {
  // UINT32_MAX is the one 65-bit ue code; the se extremes are 63 bits.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  BitWriter bw;
  bw.put_bit(true);  // misalign every code below
  bw.put_ue(0xFFFFFFFFU);
  bw.put_se(kMax);
  bw.put_se(-kMax);
  bw.put_ue(65535);
  EXPECT_EQ(bw.bit_count(), 1u + 65 + 63 + 63 + 33);
  const auto data = bw.finish();
  BitReader br(data);
  EXPECT_TRUE(br.get_bit());
  EXPECT_EQ(br.get_ue(), 0xFFFFFFFFU);
  EXPECT_EQ(br.get_se(), kMax);
  EXPECT_EQ(br.get_se(), -kMax);
  EXPECT_EQ(br.get_ue(), 65535u);
  EXPECT_FALSE(br.exhausted());  // 225 bits: 7 padding bits remain
  EXPECT_EQ(br.get_bits(7), 0u);
  EXPECT_TRUE(br.exhausted());
}

}  // namespace
}  // namespace dive::codec
