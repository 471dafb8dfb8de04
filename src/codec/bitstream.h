// Bit-level I/O with Exp-Golomb entropy codes — the serialization layer of
// the codec (Sec. II-B step 3: entropy encoding of transformed/quantized
// data).
//
// Writer and reader work a 64-bit word at a time: BitWriter packs codes
// into a left-aligned accumulator and appends whole words, BitReader
// serves reads from a cached word refilled from the byte stream. The
// bytes and the BitstreamError cases are the same as a bit-at-a-time
// implementation's. BitCounter takes the same calls as BitWriter and only
// counts, so syntax written as a template over the sink (write_block,
// write_frame_header) sizes a stream without producing it.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dive::codec {

/// Zigzag mapping of signed Exp-Golomb: 0,1,-1,2,-2,... -> 0,1,2,3,4,...
inline std::uint32_t se_to_ue(std::int32_t value) {
  return value > 0
             ? static_cast<std::uint32_t>(value) * 2 - 1
             : static_cast<std::uint32_t>(-static_cast<std::int64_t>(value)) *
                   2;
}

class BitWriter {
 public:
  // The common case of each write is inline: the code fits in the
  // accumulator. Appending a full word, a put_bits count of 0 or outside
  // [0, 32] (with its std::invalid_argument) and the one 65-bit ue code
  // are out of line.

  void put_bit(bool bit) { put_word(bit ? 1U : 0U, 1); }
  /// MSB-first. Throws std::invalid_argument unless 0 <= count <= 32.
  void put_bits(std::uint32_t value, int count) {
    if (count <= 0 || count > 32) [[unlikely]] {
      check_bits_count(count);  // a count of 0 writes nothing
      return;
    }
    put_word(value & (~std::uint64_t{0} >> (64 - count)), count);
  }

  /// Unsigned Exp-Golomb.
  void put_ue(std::uint32_t value) {
    // code = value + 1 in "leading zeros + binary" form: 2 * bits - 1
    // bits, i.e. the code itself right-aligned in that width. Only
    // UINT32_MAX (a 65-bit code) needs a second word.
    const int length = ue_bits(value);
    if (length > 64) [[unlikely]] {
      put_ue_long(value);
      return;
    }
    put_word(static_cast<std::uint64_t>(value) + 1, length);
  }
  /// Signed Exp-Golomb (zigzag mapping 0,1,-1,2,-2,...).
  void put_se(std::int32_t value) { put_ue(se_to_ue(value)); }

  /// Pads the final partial byte with zeros and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  [[nodiscard]] std::size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<std::size_t>(acc_bits_);
  }

  /// Size in bits of the Exp-Golomb code for `value` — used by motion
  /// search for rate-aware cost and by BitCounter.
  static int ue_bits(std::uint32_t value) {
    const std::uint64_t code = static_cast<std::uint64_t>(value) + 1;
    return 2 * (64 - std::countl_zero(code)) - 1;
  }
  static int se_bits(std::int32_t value) { return ue_bits(se_to_ue(value)); }

 private:
  /// Appends the low `count` bits of `value` (1 <= count <= 64; the bits
  /// above `count` must be zero).
  void put_word(std::uint64_t value, int count) {
    const int free = 64 - acc_bits_;  // 1..64
    if (count < free) [[likely]] {
      acc_ |= value << (free - count);
      acc_bits_ += count;
      return;
    }
    put_word_flush(value, count);
  }
  /// put_word when the accumulator fills (count >= 64 - acc_bits_).
  void put_word_flush(std::uint64_t value, int count);
  /// Throws std::invalid_argument unless 0 <= count <= 32.
  static void check_bits_count(int count);
  /// put_ue(UINT32_MAX), whose 65-bit code takes two words.
  void put_ue_long(std::uint32_t value);

  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  ///< pending bits, left-aligned
  int acc_bits_ = 0;       ///< 0..63
};

/// BitWriter's interface, counting bits instead of storing them.
class BitCounter {
 public:
  void put_bit(bool) { ++bits_; }
  /// Throws std::invalid_argument unless 0 <= count <= 32, as BitWriter.
  void put_bits(std::uint32_t value, int count);
  void put_ue(std::uint32_t value) {
    bits_ += static_cast<std::size_t>(BitWriter::ue_bits(value));
  }
  void put_se(std::int32_t value) {
    bits_ += static_cast<std::size_t>(BitWriter::se_bits(value));
  }
  /// Adds bits sized elsewhere (e.g. blocks counted while quantizing).
  void add_bits(std::size_t bits) { bits_ += bits; }

  [[nodiscard]] std::size_t bit_count() const { return bits_; }
  /// Bytes BitWriter::finish would return for the same calls.
  [[nodiscard]] std::size_t byte_count() const { return (bits_ + 7) / 8; }

 private:
  std::size_t bits_ = 0;
};

class BitstreamError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  // The common case of each read is inline: the cache already holds the
  // bits (and, for Exp-Golomb codes, a prefix of under 16 zeros with more
  // than 32 bits cached). Everything else — refills, the end of the
  // stream, long codes and every BitstreamError — is the out-of-line slow
  // path, which returns exactly what the whole read did before.

  bool get_bit() {
    if (cache_bits_ == 0) [[unlikely]]
      return get_bit_slow();
    const bool bit = (cache_ >> 63) != 0;
    consume(1);
    return bit;
  }
  /// Throws std::invalid_argument unless 0 <= count <= 32.
  std::uint32_t get_bits(int count) {
    if (count <= 0 || count > 32 || count > cache_bits_) [[unlikely]]
      return get_bits_slow(count);
    const auto v = static_cast<std::uint32_t>(cache_ >> (64 - count));
    consume(count);
    return v;
  }
  std::uint32_t get_ue() {
    std::uint32_t value = 0;
    if (!short_ue(value)) [[unlikely]]
      return get_ue_slow();
    return value;
  }
  std::int32_t get_se() {
    std::uint32_t mapped = 0;
    if (!short_ue(mapped)) [[unlikely]]
      return get_se_slow();
    return se_from_ue(mapped);
  }

  [[nodiscard]] bool exhausted() const {
    return bits_consumed() >= data_.size() * 8;
  }
  [[nodiscard]] std::size_t bits_consumed() const {
    return next_byte_ * 8 - static_cast<std::size_t>(cache_bits_);
  }

 private:
  /// Reads a ue code of at most 31 bits straight from a cache holding
  /// more than 32 bits; false (nothing consumed) when that does not apply.
  bool short_ue(std::uint32_t& value) {
    if (cache_bits_ <= 32) return false;
    const int zeros = std::countl_zero(cache_);
    if (zeros >= 16) return false;
    const int length = 2 * zeros + 1;
    value = static_cast<std::uint32_t>(cache_ >> (64 - length)) - 1;
    consume(length);
    return true;
  }
  /// Zigzag inverse of se_to_ue; `mapped` < UINT32_MAX.
  static std::int32_t se_from_ue(std::uint32_t mapped) {
    if (mapped % 2 == 1) return static_cast<std::int32_t>((mapped + 1) / 2);
    return -static_cast<std::int32_t>(mapped / 2);
  }

  bool get_bit_slow();
  std::uint32_t get_bits_slow(int count);
  std::uint32_t get_ue_slow();
  std::int32_t get_se_slow();

  /// Tops the cache up to at least 56 bits, or to the end of the stream.
  void refill();
  /// Drops `count` (< 64) bits from the top of the cache.
  void consume(int count) {
    cache_ <<= count;
    cache_bits_ -= count;
  }

  std::span<const std::uint8_t> data_;
  /// The next `cache_bits_` unread bits, left-aligned. The bits below
  /// them are either zero or the stream's following bits, never anything
  /// else.
  std::uint64_t cache_ = 0;
  int cache_bits_ = 0;
  std::size_t next_byte_ = 0;  ///< first byte not yet in the cache
};

}  // namespace dive::codec
