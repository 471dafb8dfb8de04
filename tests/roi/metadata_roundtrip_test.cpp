// Differential verification of the RoiMetadata wire format
// (roi/metadata.h): parse(serialize(m)) == m must hold BIT-EXACTLY for
// everything the agent can produce — random motion fields, SKIP-heavy
// frames, empty and degenerate hulls — and serialize must be a pure
// function of the value (re-serializing the parse yields identical
// bytes). The sidecar rides the uplink next to the golden-checksummed
// bitstream; a single unstable byte here would silently change
// bandwidth accounting between runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "codec/encoder.h"
#include "roi/metadata.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::roi {
namespace {

RoiMetadata random_metadata(std::uint64_t seed, bool skip_heavy) {
  util::Rng rng(seed);
  RoiMetadata m;
  m.mb_cols = rng.uniform_int(1, 14);
  m.mb_rows = rng.uniform_int(1, 9);
  const std::size_t mbs =
      static_cast<std::size_t>(m.mb_cols) * static_cast<std::size_t>(m.mb_rows);
  m.mvs.resize(mbs);
  m.skip.resize(mbs);
  for (std::size_t i = 0; i < mbs; ++i) {
    m.mvs[i] = {rng.uniform_int(-64, 64), rng.uniform_int(-64, 64)};
    m.skip[i] = static_cast<std::uint8_t>(
        skip_heavy ? (rng.uniform_int(0, 9) > 0) : rng.uniform_int(0, 1));
  }
  const int regions = rng.uniform_int(0, 4);
  for (int r = 0; r < regions; ++r) {
    RoiRegion region;
    region.mean_mv = {rng.uniform_int(-32, 32), rng.uniform_int(-32, 32)};
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

TEST(RoiMetadataRoundtrip, RandomMotionFields) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed)
    expect_roundtrip(random_metadata(seed, false));
}

TEST(RoiMetadataRoundtrip, SkipHeavyFrames) {
  for (std::uint64_t seed = 100; seed <= 120; ++seed)
    expect_roundtrip(random_metadata(seed, true));
}

TEST(RoiMetadataRoundtrip, EmptyAndDegenerateShapes) {
  // Intra sidecar: grid only, no field, no skips, no regions.
  RoiMetadata intra;
  intra.mb_cols = 12;
  intra.mb_rows = 7;
  expect_roundtrip(intra);

  // Degenerate hulls (0 / 1 / 2 vertices) must survive verbatim — the
  // gate ignores them, but the wire format carries what it is given.
  RoiMetadata degenerate;
  degenerate.mb_cols = 2;
  degenerate.mb_rows = 2;
  degenerate.regions.push_back({{}, {3, -1}});
  degenerate.regions.push_back({{{160, 320}}, {0, 0}});
  degenerate.regions.push_back({{{0, 0}, {-16, 512}}, {-7, 7}});
  expect_roundtrip(degenerate);

  // Zero-size grid (nothing to ship) still round-trips.
  expect_roundtrip(RoiMetadata{});
}

TEST(RoiMetadataRoundtrip, FromEncodedFrames) {
  // Real encoder output: the intra frame ships an empty field; the inter
  // frame ships the coded MVs and skip flags, which must round-trip and
  // match what the encoder reported.
  codec::Encoder enc({.width = 96, .height = 48});
  video::Frame a(96, 48);
  util::Rng rng(7);
  for (auto& px : a.y.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const codec::EncodedFrame intra = enc.encode(a, 20);
  const RoiMetadata mi = from_encoded(intra, 96, 48);
  EXPECT_FALSE(mi.has_motion());
  EXPECT_EQ(mi.width(), 96);
  expect_roundtrip(mi);

  const codec::EncodedFrame inter = enc.encode(a, 20);
  const RoiMetadata mp = from_encoded(inter, 96, 48);
  ASSERT_TRUE(mp.has_motion());
  EXPECT_EQ(mp.mvs.size(), inter.motion.mvs.size());
  EXPECT_EQ(mp.skip, inter.skip);
  expect_roundtrip(mp);
}

TEST(RoiMetadataRoundtrip, TruncatedBytesRejected) {
  const RoiMetadata m = random_metadata(42, false);
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
  tail.insert(tail.begin(), {0x52, 0x01});
  return tail;
}

TEST(RoiMetadataHardening, OverlongVarintRejected) {
  // mb_cols = 1 encoded non-canonically as 81 00 ("1 + continuation,
  // then an empty terminator"). The value is representable in one byte,
  // so the two-byte spelling must be rejected, not silently accepted.
  const auto bytes = header_plus({0x81, 0x00, /*rows*/ 0x01, /*flags*/ 0x00,
                                  /*regions*/ 0x00});
  EXPECT_FALSE(RoiMetadata::parse(bytes).has_value());

  // Same value, canonical spelling: accepted.
  const auto canonical =
      header_plus({0x01, 0x01, 0x00, 0x00});
  EXPECT_TRUE(RoiMetadata::parse(canonical).has_value());
}

TEST(RoiMetadataHardening, ElevenByteVarintRejected) {
  // Ten continuation bytes then a terminator: one byte past the longest
  // legal (10-byte) encoding of a uint64.
  std::vector<std::uint8_t> tail(11, 0x80);
  tail.back() = 0x01;
  tail.insert(tail.end(), {0x01, 0x00, 0x00});
  EXPECT_FALSE(RoiMetadata::parse(header_plus(tail)).has_value());
}

TEST(RoiMetadataHardening, TenByteOverflowRejected) {
  // A maximal 10-byte varint whose 10th byte carries more than bit 64:
  // the value does not fit uint64, so accepting it would silently
  // truncate (and two spellings would collide).
  std::vector<std::uint8_t> tail(9, 0xFF);
  tail.push_back(0x02);  // bit 65
  tail.insert(tail.end(), {0x01, 0x00, 0x00});
  EXPECT_FALSE(RoiMetadata::parse(header_plus(tail)).has_value());
}

TEST(RoiMetadataHardening, NonZeroSkipPaddingRejected) {
  // 3x1 grid with skip flags: 3 payload bits leave 5 padding bits in the
  // single skip byte. Nonzero padding parses to the same value as zero
  // padding — a digest-colliding second spelling — so it must reject.
  RoiMetadata m;
  m.mb_cols = 3;
  m.mb_rows = 1;
  m.skip = {1, 0, 1};
  std::vector<std::uint8_t> bytes = m.serialize();
  const auto baseline = RoiMetadata::parse(bytes);
  ASSERT_TRUE(baseline.has_value());

  // The skip byte is the last-but-one (region count 0 trails it).
  const std::size_t skip_byte = bytes.size() - 2;
  ASSERT_EQ(bytes[skip_byte], 0x05u);  // LSB-first: 1,0,1
  bytes[skip_byte] |= 0x20;            // flip a padding bit
  EXPECT_FALSE(RoiMetadata::parse(bytes).has_value());
}

TEST(RoiMetadataHardening, OutOfInt32MotionRejected) {
  // mean_mv.dx = 2^32 as a zigzag varint: in-range for the varint layer
  // but wider than the int32 the wire schema stores — must reject, not
  // truncate (truncation would re-serialize to different bytes and break
  // the fix-point).
  const auto bytes = header_plus({/*cols*/ 0x01, /*rows*/ 0x01,
                                  /*flags*/ 0x00, /*regions*/ 0x01,
                                  // zigzag(2^32) = 2^33 varint-encoded:
                                  0x80, 0x80, 0x80, 0x80, 0x20,
                                  /*dy*/ 0x00, /*points*/ 0x00});
  EXPECT_FALSE(RoiMetadata::parse(bytes).has_value());
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
                                    /*flags*/ 0x00, /*regions*/ 0x01,
                                    /*mean_mv*/ 0x00, 0x00, /*points*/ 0x02};
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
    const std::vector<std::uint8_t> bytes =
        random_metadata(seed, seed % 2 == 0).serialize();
    const auto parsed = RoiMetadata::parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), bytes) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace dive::roi
