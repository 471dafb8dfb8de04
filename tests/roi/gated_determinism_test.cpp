// Differential verification of RoI-gated serving determinism: the same
// scenario must produce IDENTICAL results — mAP, gated/full counts,
// propagated boxes, sidecar bytes — regardless of encoder threading,
// scheduler worker count, or batch interleaving. The gate plans at
// admission and runs at dispatch, both in per-session frame order, and
// its held-box state advances strictly in run order; this suite is what
// holds that contract (and CI runs it on every SIMD dispatch leg, so
// the kernels cannot leak into gating decisions either).
#include <gtest/gtest.h>

#include <vector>

#include "harness/serve_scenario.h"

namespace dive::harness {
namespace {

ServeScenarioOptions gated_scenario() {
  ServeScenarioOptions opt = default_serve_options();
  opt.sessions = 3;
  opt.frames_per_session = 10;
  opt.roi_metadata = true;
  // Ample capacity: every frame offloads, so any nondeterminism shows up
  // as a result difference instead of hiding behind admission drops.
  opt.node.session.deadline = util::from_millis(4000.0);
  return opt;
}

struct Digest {
  double map;
  long gated, full, propagated, sidecar, completed;
  double work, px;

  explicit Digest(const ServeScenarioResult& r)
      : map(r.aggregate_map),
        gated(r.gated),
        full(r.full_inference),
        propagated(r.propagated_boxes),
        sidecar(r.sidecar_bytes),
        completed(r.completed),
        work(r.mean_gate_work),
        px(r.mean_gated_pixel_fraction) {}

  bool operator==(const Digest&) const = default;
};

TEST(GatedDeterminism, InvariantAcrossThreadsWorkersAndBatching) {
  ServeScenarioOptions base = gated_scenario();
  base.encoder_threads = 1;
  base.node.scheduler.workers = 1;
  base.node.scheduler.max_batch = 1;
  const Digest reference(run_serve_scenario(base));
  EXPECT_GT(reference.gated, 0);
  EXPECT_GT(reference.sidecar, 0);

  for (const int encoder_threads : {1, 3}) {
    for (const auto& [workers, max_batch] :
         {std::pair{1, 4}, {2, 2}, {4, 4}}) {
      ServeScenarioOptions opt = gated_scenario();
      opt.encoder_threads = encoder_threads;
      opt.node.scheduler.workers = workers;
      opt.node.scheduler.max_batch = static_cast<std::size_t>(max_batch);
      const Digest digest(run_serve_scenario(opt));
      EXPECT_EQ(digest, reference)
          << "threads=" << encoder_threads << " workers=" << workers
          << " batch=" << max_batch;
    }
  }
}

TEST(GatedDeterminism, RepeatRunsAreBitIdentical) {
  // Both lanes: repeat runs must agree with the metadata lane off and on.
  for (const bool roi_metadata : {false, true}) {
    ServeScenarioOptions opt = gated_scenario();
    opt.roi_metadata = roi_metadata;
    const Digest a(run_serve_scenario(opt));
    const Digest b(run_serve_scenario(opt));
    EXPECT_EQ(a, b) << "roi_metadata=" << roi_metadata;
  }
}

TEST(GatedDeterminism, MetadataLaneOffMatchesPreRoiBehavior) {
  // roi_metadata off: no sidecar bytes on the uplink, no gate counters,
  // and per-frame work pinned to 1.0 — the scheduler's integer-exact
  // reduction to the pre-RoI service-time formula.
  ServeScenarioOptions opt = gated_scenario();
  opt.roi_metadata = false;
  const ServeScenarioResult r = run_serve_scenario(opt);
  EXPECT_EQ(r.sidecar_bytes, 0);
  EXPECT_EQ(r.gated, 0);
  EXPECT_EQ(r.full_inference, 0);
  EXPECT_EQ(r.propagated_boxes, 0);
  EXPECT_GT(r.aggregate_map, 0.0);
}

TEST(GatedDeterminism, GatedAccuracyTracksFullFrame) {
  // The quality contract at test scale: gating stays within 2 mAP
  // points of full-frame inference while actually gating frames.
  ServeScenarioOptions opt = gated_scenario();
  opt.frames_per_session = 16;
  opt.roi_metadata = false;
  const ServeScenarioResult full = run_serve_scenario(opt);
  opt.roi_metadata = true;
  const ServeScenarioResult gated = run_serve_scenario(opt);
  EXPECT_GT(gated.gated, 0);
  EXPECT_LT(gated.mean_gated_pixel_fraction, 0.8);
  EXPECT_NEAR(gated.aggregate_map, full.aggregate_map, 0.02);
}

}  // namespace
}  // namespace dive::harness
