#include "codec/bitstream.h"

#include <bit>

namespace dive::codec {

namespace {

void check_count(int count, const char* what) {
  if (count < 0 || count > 32) throw std::invalid_argument(what);
}

}  // namespace

void BitWriter::put_word_flush(std::uint64_t value, int count) {
  // The accumulator fills: append it as one big-endian word and keep the
  // `rest` low bits of `value` as the new pending bits.
  const int free = 64 - acc_bits_;  // 1..64
  const int rest = count - free;    // 0..63
  acc_ |= value >> rest;
  const std::size_t n = bytes_.size();
  bytes_.resize(n + 8);
  for (int i = 0; i < 8; ++i)
    bytes_[n + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(acc_ >> (56 - 8 * i));
  acc_ = rest == 0 ? 0 : value << (64 - rest);
  acc_bits_ = rest;
}

void BitWriter::check_bits_count(int count) {
  check_count(count, "BitWriter::put_bits: count outside [0, 32]");
}

void BitWriter::put_ue_long(std::uint32_t value) {
  const std::uint64_t code = static_cast<std::uint64_t>(value) + 1;
  const int length = ue_bits(value);  // 65
  put_word(0, length - 64);
  put_word(code, 64);
}

std::vector<std::uint8_t> BitWriter::finish() {
  const int tail = (acc_bits_ + 7) / 8;
  for (int i = 0; i < tail; ++i)
    bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (56 - 8 * i)));
  acc_ = 0;
  acc_bits_ = 0;
  return std::move(bytes_);
}

void BitCounter::put_bits(std::uint32_t, int count) {
  check_count(count, "BitCounter::put_bits: count outside [0, 32]");
  bits_ += static_cast<std::size_t>(count);
}

void BitReader::refill() {
  if (next_byte_ + 8 <= data_.size()) {
    // Load the next 8 bytes as one big-endian word and keep the whole
    // bytes that fit. The bits of the partial byte that also land below
    // cache_bits_ are the stream's own next bits, so a later refill ORs
    // the same values over them.
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 8; ++i)
      word = (word << 8) | data_[next_byte_ + i];
    cache_ |= word >> cache_bits_;
    const int take = (63 - cache_bits_) >> 3;
    next_byte_ += static_cast<std::size_t>(take);
    cache_bits_ += 8 * take;
    return;
  }
  while (cache_bits_ <= 56 && next_byte_ < data_.size()) {
    cache_ |= static_cast<std::uint64_t>(data_[next_byte_++])
              << (56 - cache_bits_);
    cache_bits_ += 8;
  }
}

bool BitReader::get_bit_slow() {
  if (cache_bits_ == 0) refill();
  if (cache_bits_ == 0)
    throw BitstreamError("BitReader: read past end of stream");
  const bool bit = (cache_ >> 63) != 0;
  consume(1);
  return bit;
}

std::uint32_t BitReader::get_bits_slow(int count) {
  check_count(count, "BitReader::get_bits: count outside [0, 32]");
  if (count == 0) return 0;
  if (cache_bits_ < count) refill();
  if (cache_bits_ < count)
    throw BitstreamError("BitReader: read past end of stream");
  const auto v = static_cast<std::uint32_t>(cache_ >> (64 - count));
  consume(count);
  return v;
}

std::uint32_t BitReader::get_ue_slow() {
  // After a refill the cache holds at least 56 bits or the rest of the
  // stream, so the 33-bit prefix window is either fully visible or runs
  // into the end.
  if (cache_bits_ <= 32) refill();
  const int zeros = std::countl_zero(cache_);
  if (zeros > 32 && cache_bits_ > 32)
    throw BitstreamError("BitReader: malformed ue code");
  if (zeros >= cache_bits_)
    throw BitstreamError("BitReader: read past end of stream");
  const int length = 2 * zeros + 1;
  std::uint64_t code;
  if (length <= cache_bits_) {
    code = cache_ >> (64 - length);
    consume(length);
  } else {
    consume(zeros);
    refill();
    if (cache_bits_ < zeros + 1)
      throw BitstreamError("BitReader: read past end of stream");
    code = cache_ >> (63 - zeros);
    consume(zeros + 1);
  }
  // A 32-zero prefix admits 33-bit codes; anything whose value does not
  // fit uint32 is hostile input, not a real code — reject instead of
  // silently truncating.
  if (code - 1 > 0xFFFFFFFFULL)
    throw BitstreamError("BitReader: ue code exceeds 32 bits");
  return static_cast<std::uint32_t>(code - 1);
}

std::int32_t BitReader::get_se_slow() {
  const std::uint32_t mapped = get_ue_slow();
  // mapped == UINT32_MAX would wrap (mapped + 1) to 0 in se_from_ue; the
  // signed domain tops out one code earlier, so reject it as malformed.
  if (mapped == 0xFFFFFFFFU)
    throw BitstreamError("BitReader: se code out of range");
  return se_from_ue(mapped);
}

}  // namespace dive::codec
