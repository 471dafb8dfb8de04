#include "roi/metadata.h"

#include <cmath>

namespace dive::roi {
namespace {

constexpr std::uint8_t kMagic = 0x52;  // 'R'
constexpr std::uint8_t kVersion = 2;

// Sanity bounds while parsing untrusted bytes: reject before allocating.
constexpr int kMaxMbDim = 1 << 12;
constexpr std::size_t kMaxRegions = 1 << 16;
constexpr std::size_t kMaxHullPoints = 1 << 16;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

/// Strict cursor over the wire bytes; every read can fail.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos >= bytes.size()) {
      ok = false;
      return 0;
    }
    return bytes[pos++];
  }

  /// Canonical LEB128: at most 10 bytes, the 10th byte carries only bit
  /// 64 (reject silent truncation), and a terminating zero byte is only
  /// legal as the sole byte (reject overlong encodings like 80 00).
  /// Canonicality makes encoding a bijection, which is what lets the
  /// sidecar digest check trust serialize(parse(bytes)) == bytes — a
  /// re-encoded spoof of an accepted sidecar is byte-identical or
  /// rejected, never a digest collision.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      if (!ok) return 0;
      if (shift == 63 && (b & 0x7F) > 1) {
        ok = false;  // bits beyond 64 — value overflows uint64
        return 0;
      }
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        if (shift > 0 && b == 0) {
          ok = false;  // overlong (non-canonical) encoding
          return 0;
        }
        return v;
      }
    }
    ok = false;  // > 10 bytes
    return 0;
  }

  std::int64_t svarint() { return unzigzag(varint()); }
};

}  // namespace

HullPoint HullPoint::from_vec2(geom::Vec2 p) {
  return {static_cast<std::int32_t>(std::llround(p.x * (1 << kHullFracBits))),
          static_cast<std::int32_t>(std::llround(p.y * (1 << kHullFracBits)))};
}

std::vector<geom::Vec2> RoiRegion::hull_px() const {
  std::vector<geom::Vec2> out;
  out.reserve(hull.size());
  for (const auto& p : hull) out.push_back(p.as_vec2());
  return out;
}

std::vector<std::uint8_t> RoiMetadata::serialize() const {
  std::vector<std::uint8_t> out;
  out.push_back(kMagic);
  out.push_back(kVersion);
  put_varint(out, static_cast<std::uint64_t>(mb_cols));
  put_varint(out, static_cast<std::uint64_t>(mb_rows));
  put_varint(out, regions.size());
  for (const auto& region : regions) {
    put_varint(out, region.hull.size());
    // Delta-coded vertices: convex hulls walk the contour, so deltas are
    // small and the varints short.
    HullPoint prev{};
    for (const auto& p : region.hull) {
      // int64 deltas: two int32 vertices can sit 2^32 apart, which would
      // overflow (UB) in int arithmetic.
      put_svarint(out, static_cast<std::int64_t>(p.x) - prev.x);
      put_svarint(out, static_cast<std::int64_t>(p.y) - prev.y);
      prev = p;
    }
  }
  return out;
}

std::optional<RoiMetadata> RoiMetadata::parse(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (r.u8() != kMagic || r.u8() != kVersion || !r.ok) return std::nullopt;

  RoiMetadata meta;
  const std::uint64_t cols = r.varint();
  const std::uint64_t rows = r.varint();
  if (!r.ok || cols > kMaxMbDim || rows > kMaxMbDim) return std::nullopt;
  meta.mb_cols = static_cast<int>(cols);
  meta.mb_rows = static_cast<int>(rows);

  const std::uint64_t region_count = r.varint();
  if (!r.ok || region_count > kMaxRegions) return std::nullopt;
  meta.regions.resize(region_count);
  for (auto& region : meta.regions) {
    const std::uint64_t points = r.varint();
    if (!r.ok || points > kMaxHullPoints) return std::nullopt;
    region.hull.resize(points);
    // Deltas are int64 on the wire (two int32 endpoints can be 2^32
    // apart); each accumulated vertex must land back in int32.
    HullPoint prev{};
    for (auto& p : region.hull) {
      const std::int64_t x = static_cast<std::int64_t>(prev.x) + r.svarint();
      const std::int64_t y = static_cast<std::int64_t>(prev.y) + r.svarint();
      if (x < INT32_MIN || x > INT32_MAX || y < INT32_MIN || y > INT32_MAX)
        return std::nullopt;
      p.x = static_cast<std::int32_t>(x);
      p.y = static_cast<std::int32_t>(y);
      prev = p;
    }
  }
  if (!r.ok || r.pos != bytes.size()) return std::nullopt;
  return meta;
}

RoiMetadata from_encoded(const codec::EncodedFrame& /*encoded*/, int width,
                         int height) {
  RoiMetadata meta;
  meta.mb_cols = width / codec::kMacroblockSize;
  meta.mb_rows = height / codec::kMacroblockSize;
  return meta;
}

void add_region(RoiMetadata& meta, const std::vector<geom::Vec2>& hull,
                geom::Vec2 /*mean_mv_px*/) {
  RoiRegion region;
  region.hull.reserve(hull.size());
  for (const auto& p : hull) region.hull.push_back(HullPoint::from_vec2(p));
  meta.regions.push_back(std::move(region));
}

}  // namespace dive::roi
