// Golden per-scheme outcome digests: every SchemeKind (plus DiVE with the
// RoI metadata lane) runs through make_scheme on one short rendered clip
// under three networks, and an FNV-1a digest over every FrameOutcome
// field — detection boxes and confidences by bit pattern — must match the
// stored value. Any change to a scheme's budget, feedback, encoding,
// upload or fallback path shows up here as a different digest, so a
// refactor that claims byte-identical behaviour is held to it. CI runs
// this on every SIMD dispatch leg, so the kernels are pinned too.
//
// To re-bake after a deliberate behaviour change, run the suite and copy
// the "actual" digests the failures print.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "harness/experiment.h"

namespace dive::harness {
namespace {

data::Clip golden_clip() {
  auto spec = data::nuscenes_like(1, 36);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  return data::generate_clip(spec, 0);
}

NetworkScenario constant(double mbps) {
  NetworkScenario net;
  net.mbps = mbps;
  return net;
}

/// 2 Mbps with a 0.6 s outage every 1.2 s from 0.5 s on: every scheme
/// crosses several outages inside the 3 s clip.
NetworkScenario outages() {
  NetworkScenario net = constant(2.0);
  net.first_outage_s = 0.5;
  net.outage_interval_s = 1.2;
  net.outage_duration_s = 0.6;
  return net;
}

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

struct SchemeRun {
  std::uint64_t digest = 0;
  int offloaded = 0;
  int local = 0;
};

SchemeRun run(SchemeKind kind, bool roi_metadata,
              const NetworkScenario& net) {
  const data::Clip clip = golden_clip();
  SchemeOptions options;
  options.roi_metadata = roi_metadata;
  auto scheme =
      make_scheme(kind, options, net, clip, clip.frame_count() / clip.fps);
  Fnv1a d;
  SchemeRun r;
  for (const auto& rec : clip.frames) {
    const core::FrameOutcome o =
        scheme->process_frame(rec.image, util::from_seconds(rec.timestamp));
    d.add(static_cast<std::uint64_t>(o.response_time));
    d.add(static_cast<std::uint64_t>(o.offloaded));
    d.add(static_cast<std::uint64_t>(o.bytes_sent));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(o.base_qp)));
    d.add(static_cast<std::uint64_t>(o.detections.size()));
    for (const auto& det : o.detections) {
      d.add(static_cast<std::uint64_t>(det.cls));
      d.add(det.box.x0);
      d.add(det.box.y0);
      d.add(det.box.x1);
      d.add(det.box.y1);
      d.add(det.confidence);
    }
    ++(o.offloaded ? r.offloaded : r.local);
  }
  r.digest = d.h;
  return r;
}

struct Golden {
  SchemeKind kind;
  bool roi_metadata;
  std::uint64_t digest;
};

std::string label(const Golden& g) {
  return std::string(to_string(g.kind)) + (g.roi_metadata ? "+RoI" : "");
}

std::vector<SchemeRun> check(const NetworkScenario& net,
                             const std::vector<Golden>& goldens) {
  std::vector<SchemeRun> runs;
  for (const Golden& g : goldens) {
    runs.push_back(run(g.kind, g.roi_metadata, net));
    EXPECT_EQ(runs.back().digest, g.digest)
        << label(g) << ": actual 0x" << std::hex << runs.back().digest
        << "ULL";
  }
  return runs;
}

TEST(SchemeGolden, Constant2Mbps) {
  check(constant(2.0), {
      {SchemeKind::kDive, false, 0x972337de3e7d428ULL},
      {SchemeKind::kDive, true, 0x1f67fbb588aeb1a9ULL},
      {SchemeKind::kO3, false, 0xfd79e61880a30a2aULL},
      {SchemeKind::kEaar, false, 0xdecc7621dd258709ULL},
      {SchemeKind::kDds, false, 0x57289c675f3697c7ULL},
      {SchemeKind::kUniform, false, 0x32a79a2243ef0e8ULL},
  });
}

TEST(SchemeGolden, Constant04Mbps) {
  check(constant(0.4), {
      {SchemeKind::kDive, false, 0x20af99feb374dc2bULL},
      {SchemeKind::kDive, true, 0x62a085740553aa83ULL},
      {SchemeKind::kO3, false, 0xee6e596b905d31deULL},
      {SchemeKind::kEaar, false, 0xea249110d0025023ULL},
      {SchemeKind::kDds, false, 0xcbebf9c5cf13bdc3ULL},
      {SchemeKind::kUniform, false, 0x4703b7cb2b91907eULL},
  });
}

TEST(SchemeGolden, PeriodicOutages) {
  const std::vector<Golden> goldens = {
      {SchemeKind::kDive, false, 0x5c2c11bcd7e4d64ULL},
      {SchemeKind::kDive, true, 0x425584589bd8447fULL},
      {SchemeKind::kO3, false, 0xd5fd02df1d6a9a66ULL},
      {SchemeKind::kEaar, false, 0x85bdab95fa7662d8ULL},
      {SchemeKind::kDds, false, 0x4fce14330b84846ULL},
      {SchemeKind::kUniform, false, 0x994ba1af6dbf9991ULL},
  };
  const std::vector<SchemeRun> runs = check(outages(), goldens);
  // Both sides of every scheme's drop branch must be exercised, or the
  // digest would not pin the fallback path.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_GT(runs[i].offloaded, 0) << label(goldens[i]);
    EXPECT_GT(runs[i].local, 0) << label(goldens[i]);
  }
}

}  // namespace
}  // namespace dive::harness
