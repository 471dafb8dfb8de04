// Differential verification of the SIMD SAD kernels against the
// canonical scalar reference (codec/sad_kernels.h). The contract is
// EXACT equality: SAD is an integer sum, so the dispatched kernel must
// reproduce the scalar result bit-for-bit on every input — randomized
// planes, odd strides, saturating extremes, and every displacement a
// diamond/hex search can visit, including half-pel and border reads via
// the sad_16x16 wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "codec/motion_search.h"
#include "codec/sad_kernels.h"
#include "util/rng.h"
#include "video/frame.h"

namespace dive::codec {
namespace {

constexpr int kMb = kMacroblockSize;

/// Buffer of `w * h` random bytes acting as a plane with stride `w`.
std::vector<std::uint8_t> random_buffer(int w, int h, std::uint64_t seed) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(w) *
                                static_cast<std::size_t>(h));
  util::Rng rng(seed);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return buf;
}

video::Plane random_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  p.data = random_buffer(w, h, seed);
  return p;
}

/// Independent reference: textbook double loop, no shared code with the
/// production scalar kernel beyond the definition of SAD itself.
std::uint32_t reference_sad(const std::uint8_t* cur, int cur_stride,
                            const std::uint8_t* ref, int ref_stride) {
  std::uint32_t acc = 0;
  for (int y = 0; y < kMb; ++y)
    for (int x = 0; x < kMb; ++x) {
      const int c = cur[y * cur_stride + x];
      const int r = ref[y * ref_stride + x];
      acc += static_cast<std::uint32_t>(c > r ? c - r : r - c);
    }
  return acc;
}

TEST(SadKernels, DispatchReportsAKernel) {
  const SadKernel k = active_sad_kernel();
  EXPECT_NE(to_string(k), nullptr);
  EXPECT_NE(sad_16x16_fn(), nullptr);
  // The env override must pin the dispatch to the scalar kernel.
  const char* force = std::getenv("DIVE_FORCE_SCALAR");
  if (force != nullptr && std::string_view(force) != "0") {
    EXPECT_EQ(k, SadKernel::kScalar);
  }
}

TEST(SadKernels, MatchesScalarOnRandomBlocks) {
  const Sad16Fn fast = sad_16x16_fn();
  const int w = 160, h = 96;
  const auto cur = random_buffer(w, h, 11);
  const auto ref = random_buffer(w, h, 22);
  util::Rng rng(33);
  for (int trial = 0; trial < 2000; ++trial) {
    const int cx = rng.uniform_int(0, w - kMb);
    const int cy = rng.uniform_int(0, h - kMb);
    const int rx = rng.uniform_int(0, w - kMb);
    const int ry = rng.uniform_int(0, h - kMb);
    const std::uint8_t* c = &cur[static_cast<std::size_t>(cy) * w + cx];
    const std::uint8_t* r = &ref[static_cast<std::size_t>(ry) * w + rx];
    const std::uint32_t want = sad_16x16_scalar(c, w, r, w);
    ASSERT_EQ(fast(c, w, r, w), want)
        << "kernel=" << to_string(active_sad_kernel()) << " cur=(" << cx
        << "," << cy << ") ref=(" << rx << "," << ry << ")";
    ASSERT_EQ(want, reference_sad(c, w, r, w));
  }
}

TEST(SadKernels, MatchesScalarOnOddStrides) {
  const Sad16Fn fast = sad_16x16_fn();
  // Odd, mutually different strides: catches kernels that assume
  // 16-aligned or equal strides for the two operands.
  for (const auto& [cw, rw] : {std::pair{67, 131}, {131, 67}, {17, 23}}) {
    const int h = 40;
    const auto cur = random_buffer(cw, h, 44);
    const auto ref = random_buffer(rw, h, 55);
    util::Rng rng(66);
    for (int trial = 0; trial < 500; ++trial) {
      const int cx = rng.uniform_int(0, cw - kMb);
      const int cy = rng.uniform_int(0, h - kMb);
      const int rx = rng.uniform_int(0, rw - kMb);
      const int ry = rng.uniform_int(0, h - kMb);
      const std::uint8_t* c = &cur[static_cast<std::size_t>(cy) * cw + cx];
      const std::uint8_t* r = &ref[static_cast<std::size_t>(ry) * rw + rx];
      ASSERT_EQ(fast(c, cw, r, rw), sad_16x16_scalar(c, cw, r, rw))
          << "strides " << cw << "/" << rw;
    }
  }
}

TEST(SadKernels, SaturatingExtremes) {
  // All-255 vs all-0 maximizes every per-pixel difference: 16*16*255 =
  // 65280, which overflows a u16 accumulator — exactly the mistake a
  // hand-rolled reduction makes.
  std::vector<std::uint8_t> hi(kMb * kMb, 255);
  std::vector<std::uint8_t> lo(kMb * kMb, 0);
  const Sad16Fn fast = sad_16x16_fn();
  EXPECT_EQ(fast(hi.data(), kMb, lo.data(), kMb), 65280u);
  EXPECT_EQ(fast(lo.data(), kMb, hi.data(), kMb), 65280u);
  EXPECT_EQ(sad_16x16_scalar(hi.data(), kMb, lo.data(), kMb), 65280u);
  EXPECT_EQ(fast(hi.data(), kMb, hi.data(), kMb), 0u);
  // Alternating extremes exercise both signs of the per-pixel abs-diff.
  std::vector<std::uint8_t> alt(kMb * kMb);
  for (std::size_t i = 0; i < alt.size(); ++i) alt[i] = i % 2 ? 255 : 0;
  EXPECT_EQ(fast(alt.data(), kMb, lo.data(), kMb),
            sad_16x16_scalar(alt.data(), kMb, lo.data(), kMb));
  EXPECT_EQ(fast(alt.data(), kMb, hi.data(), kMb),
            sad_16x16_scalar(alt.data(), kMb, hi.data(), kMb));
}

TEST(SadKernels, WrapperMatchesScalarForAllSearchCandidates) {
  // Sweep every displacement a search can evaluate — full-pel interior
  // (SIMD path), full-pel straddling the border (clamped scalar path),
  // and half-pel (interpolated scalar path) — and require the wrapper
  // under the dispatched kernel to equal the wrapper pinned to scalar.
  const auto cur = random_plane(96, 64, 77);
  const auto ref = random_plane(96, 64, 88);
  const Sad16Fn fast = sad_16x16_fn();
  for (const auto& [cx, cy] : {std::pair{0, 0}, {80, 48}, {32, 16}}) {
    for (int hdy = -9; hdy <= 9; ++hdy)
      for (int hdx = -9; hdx <= 9; ++hdx) {
        const MotionVector mv{hdx, hdy};
        ASSERT_EQ(sad_16x16(cur, ref, cx, cy, mv, fast),
                  sad_16x16(cur, ref, cx, cy, mv, &sad_16x16_scalar))
            << "block (" << cx << "," << cy << ") mv (" << hdx << "," << hdy
            << ")";
      }
  }
}

TEST(SadKernels, PolicyResolution) {
  EXPECT_EQ(resolve_sad_fn(SadKernelPolicy::kScalar), &sad_16x16_scalar);
  EXPECT_EQ(resolve_sad_fn(SadKernelPolicy::kAuto), sad_16x16_fn());
}

TEST(SadKernels, SearcherFieldsIdenticalAcrossKernels) {
  // End-to-end differential: a full motion search over a frame with real
  // structure must produce the identical field (vectors AND costs) with
  // the kernel pinned to scalar vs. auto-dispatched.
  video::Plane ref(160, 96);
  video::Plane cur(160, 96);
  util::Rng rng(99);
  for (int y = 0; y < 96; ++y)
    for (int x = 0; x < 160; ++x) {
      const double v = 90 + 50 * ((x / 13 + y / 9) % 2) + rng.uniform(-6, 6);
      ref.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
      cur.at(x, y) = ref.at_clamped(x - 5, y - 2);  // global (5,2) shift
    }
  for (const MotionSearchMethod m :
       {MotionSearchMethod::kDia, MotionSearchMethod::kHex,
        MotionSearchMethod::kUmh, MotionSearchMethod::kEsa}) {
    const MotionSearcher scalar({.method = m, .sad = SadKernelPolicy::kScalar});
    const MotionSearcher autod({.method = m, .sad = SadKernelPolicy::kAuto});
    const MotionField a = scalar.search_frame(cur, ref);
    const MotionField b = autod.search_frame(cur, ref);
    EXPECT_EQ(a.mvs, b.mvs) << "method " << to_string(m);
    EXPECT_EQ(a.sad, b.sad) << "method " << to_string(m);
  }
}

}  // namespace
}  // namespace dive::codec
