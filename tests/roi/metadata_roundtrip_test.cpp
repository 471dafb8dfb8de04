// Differential verification of the RoiMetadata wire format
// (roi/metadata.h): parse(serialize(m)) == m must hold BIT-EXACTLY for
// everything the agent can produce — random hull regions, empty and
// degenerate hulls — and serialize must be a pure function of the value
// (re-serializing the parse yields identical bytes). The sidecar rides
// the uplink next to the golden-checksummed bitstream; a single unstable
// byte here would silently change bandwidth accounting between runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "codec/encoder.h"
#include "edge/server.h"
#include "roi/metadata.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::roi {
namespace {

RoiMetadata random_metadata(std::uint64_t seed) {
  util::Rng rng(seed);
  RoiMetadata m;
  m.mb_cols = rng.uniform_int(1, 14);
  m.mb_rows = rng.uniform_int(1, 9);
  const int regions = rng.uniform_int(0, 4);
  for (int r = 0; r < regions; ++r) {
    RoiRegion region;
    const int verts = rng.uniform_int(3, 9);
    for (int v = 0; v < verts; ++v)
      region.hull.push_back({rng.uniform_int(-100, 4000),
                             rng.uniform_int(-100, 2500)});
    m.regions.push_back(std::move(region));
  }
  return m;
}

void expect_roundtrip(const RoiMetadata& m) {
  const std::vector<std::uint8_t> bytes = m.serialize();
  const auto parsed = RoiMetadata::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, m);
  // Serialization is canonical: the parse re-serializes byte-identically.
  EXPECT_EQ(parsed->serialize(), bytes);
}

TEST(RoiMetadataRoundtrip, RandomRegions) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed)
    expect_roundtrip(random_metadata(seed));
}

TEST(RoiMetadataRoundtrip, EmptyAndDegenerateShapes) {
  // Grid only, no regions.
  RoiMetadata bare;
  bare.mb_cols = 12;
  bare.mb_rows = 7;
  expect_roundtrip(bare);

  // Degenerate hulls (0 / 1 / 2 vertices) must survive verbatim — the
  // gate ignores them, but the wire format carries what it is given.
  RoiMetadata degenerate;
  degenerate.mb_cols = 2;
  degenerate.mb_rows = 2;
  degenerate.regions.push_back({{}});
  degenerate.regions.push_back({{{160, 320}}});
  degenerate.regions.push_back({{{0, 0}, {-16, 512}}});
  expect_roundtrip(degenerate);

  // Zero-size grid (nothing to ship) still round-trips.
  expect_roundtrip(RoiMetadata{});
}

TEST(RoiMetadataRoundtrip, FromEncodedFrames) {
  // Real encoder output, intra then inter: the sidecar carries the MB
  // grid and nothing of the codec's (the edge decodes motion and SKIP),
  // so both frames seed the same value.
  codec::Encoder enc({.width = 96, .height = 48});
  video::Frame a(96, 48);
  util::Rng rng(7);
  for (auto& px : a.y.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const codec::EncodedFrame intra = enc.encode(a, 20);
  const RoiMetadata mi = from_encoded(intra, 96, 48);
  EXPECT_EQ(mi.width(), 96);
  EXPECT_EQ(mi.height(), 48);
  EXPECT_TRUE(mi.regions.empty());
  expect_roundtrip(mi);

  const codec::EncodedFrame inter = enc.encode(a, 20);
  ASSERT_EQ(inter.type, codec::FrameType::kInter);
  EXPECT_EQ(from_encoded(inter, 96, 48), mi);
}

TEST(RoiMetadataRoundtrip, TruncatedBytesRejected) {
  const RoiMetadata m = random_metadata(42);
  const std::vector<std::uint8_t> bytes = m.serialize();
  // Every proper prefix either fails to parse or (if it happens to be
  // self-delimiting) parses to something that is NOT m — no silent
  // truncation into a matching value.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto parsed =
        RoiMetadata::parse(std::span(bytes.data(), cut));
    if (parsed.has_value()) {
      EXPECT_NE(*parsed, m) << "cut=" << cut;
    }
  }
}

// --- Varint hardening: the parser accepts exactly the canonical wire
// language, so encoding is a bijection and the sidecar digest check
// cannot be spoofed by re-encoding the same value differently. ---

std::vector<std::uint8_t> header_plus(std::vector<std::uint8_t> tail) {
  // Magic + version, then caller-provided bytes.
  tail.insert(tail.begin(), {0x52, 0x02});
  return tail;
}

TEST(RoiMetadataHardening, Version1Rejected) {
  // A version-1 sidecar (grid, a flags byte for the MV field and SKIP
  // flags it could carry, then regions with their mean MV) is refused,
  // and the edge plans its frame full-frame — the same hull in version 2
  // gates.
  constexpr int kW = 128;
  constexpr int kH = 96;
  RoiMetadata m = from_encoded({}, kW, kH);
  add_region(m, {{20, 20}, {60, 20}, {60, 40}, {20, 40}});
  const std::vector<std::uint8_t> v2 = m.serialize();
  // v2: magic, version, mb_cols, mb_rows, region count 1, the hull.
  ASSERT_EQ(v2[4], 0x01);
  std::vector<std::uint8_t> v1 = header_plus({});
  v1[1] = 0x01;
  v1.insert(v1.end(), v2.begin() + 2, v2.begin() + 4);  // mb_cols, mb_rows
  v1.push_back(0x00);                                  // flags: no field
  v1.push_back(0x01);                                  // one region
  v1.insert(v1.end(), {0x00, 0x00});                   // its mean MV
  v1.insert(v1.end(), v2.begin() + 5, v2.end());       // its hull
  EXPECT_FALSE(RoiMetadata::parse(v1).has_value());
  ASSERT_TRUE(RoiMetadata::parse(v2).has_value());

  const edge::RoiGateConfig gate{.tile_px = 16, .halo_tiles = 0,
                                 .scan_stripes = 0};
  codec::Encoder enc({.width = kW, .height = kH});
  edge::EdgeServer old_wire({}, 1, gate);
  edge::EdgeServer new_wire({}, 1, gate);
  for (int k = 0; k < 3; ++k) {
    const std::vector<std::uint8_t> bytes =
        enc.encode(video::Frame(kW, kH), 20).data;
    const std::optional<RoiMetadata> p1 = RoiMetadata::parse(v1);
    const std::optional<RoiMetadata> p2 = RoiMetadata::parse(v2);
    EXPECT_FALSE(old_wire.plan(bytes, p1 ? &*p1 : nullptr).plan.gated)
        << "frame " << k;
    EXPECT_EQ(new_wire.plan(bytes, p2 ? &*p2 : nullptr).plan.gated, k > 0)
        << "frame " << k;
  }
}

TEST(RoiMetadataHardening, OverlongVarintRejected) {
  // mb_cols = 1 encoded non-canonically as 81 00 ("1 + continuation,
  // then an empty terminator"). The value is representable in one byte,
  // so the two-byte spelling must be rejected, not silently accepted.
  const auto bytes = header_plus({0x81, 0x00, /*rows*/ 0x01,
                                  /*regions*/ 0x00});
  EXPECT_FALSE(RoiMetadata::parse(bytes).has_value());

  // Same value, canonical spelling: accepted.
  const auto canonical = header_plus({0x01, 0x01, 0x00});
  EXPECT_TRUE(RoiMetadata::parse(canonical).has_value());
}

TEST(RoiMetadataHardening, ElevenByteVarintRejected) {
  // Ten continuation bytes then a terminator: one byte past the longest
  // legal (10-byte) encoding of a uint64.
  std::vector<std::uint8_t> tail(11, 0x80);
  tail.back() = 0x01;
  tail.insert(tail.end(), {0x01, 0x00});
  EXPECT_FALSE(RoiMetadata::parse(header_plus(tail)).has_value());
}

TEST(RoiMetadataHardening, TenByteOverflowRejected) {
  // A maximal 10-byte varint whose 10th byte carries more than bit 64:
  // the value does not fit uint64, so accepting it would silently
  // truncate (and two spellings would collide).
  std::vector<std::uint8_t> tail(9, 0xFF);
  tail.push_back(0x02);  // bit 65
  tail.insert(tail.end(), {0x01, 0x00});
  EXPECT_FALSE(RoiMetadata::parse(header_plus(tail)).has_value());
}

TEST(RoiMetadataHardening, HullAccumulationOverflowRejected) {
  // Two vertices whose deltas accumulate past INT32_MAX: each delta is a
  // legal varint, but the resulting vertex cannot be represented, so the
  // parse must reject instead of wrapping.
  auto zz = [](std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  };
  std::vector<std::uint8_t> tail = {/*cols*/ 0x01, /*rows*/ 0x01,
                                    /*regions*/ 0x01, /*points*/ 0x02};
  auto put = [&tail](std::uint64_t v) {
    while (v >= 0x80) {
      tail.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    tail.push_back(static_cast<std::uint8_t>(v));
  };
  // First vertex at INT32_MAX, second steps +2 past the domain.
  put(zz(2147483647));  // x0
  put(zz(0));           // y0
  put(zz(2));           // dx -> 2^31 + 1, out of range
  put(zz(0));           // dy
  EXPECT_FALSE(RoiMetadata::parse(header_plus(tail)).has_value());
}

TEST(RoiMetadataHardening, AcceptedBytesAreAFixPoint) {
  // decode -> encode -> decode: for every accepted input in this suite's
  // random family, serialize(parse(b)) == b byte-for-byte.
  for (std::uint64_t seed = 300; seed < 320; ++seed) {
    const std::vector<std::uint8_t> bytes = random_metadata(seed).serialize();
    const auto parsed = RoiMetadata::parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), bytes) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace dive::roi
