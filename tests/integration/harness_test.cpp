// Experiment-harness plumbing: scenario construction, aggregation, and
// determinism.
#include <gtest/gtest.h>


#include "harness/experiment.h"

namespace dive::harness {
namespace {

data::DatasetSpec tiny_spec() {
  auto spec = data::nuscenes_like(1, 16);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  return spec;
}

TEST(NetworkScenario, ConstantTrace) {
  NetworkScenario net;
  net.mbps = 3.0;
  const auto trace = net.make_trace(10.0, 1);
  EXPECT_DOUBLE_EQ(trace->bytes_per_sec(0), 375'000.0);
}

TEST(NetworkScenario, OutageTrace) {
  NetworkScenario net;
  net.mbps = 2.0;
  net.outage_interval_s = 5.0;
  net.outage_duration_s = 1.0;
  net.first_outage_s = 2.0;
  const auto trace = net.make_trace(12.0, 1);
  EXPECT_GT(trace->bytes_per_sec(util::from_seconds(1.0)), 0.0);
  EXPECT_DOUBLE_EQ(trace->bytes_per_sec(util::from_seconds(2.5)), 0.0);
  EXPECT_GT(trace->bytes_per_sec(util::from_seconds(3.5)), 0.0);
  EXPECT_DOUBLE_EQ(trace->bytes_per_sec(util::from_seconds(7.5)), 0.0);
}

TEST(NetworkScenario, FluctuatingTrace) {
  NetworkScenario net;
  net.mbps = 2.0;
  net.fluctuation_depth = 0.3;
  const auto trace = net.make_trace(10.0, 3);
  double lo = 1e18, hi = 0.0;
  for (util::SimTime t = 0; t < util::from_seconds(10); t += util::from_millis(100)) {
    lo = std::min(lo, trace->bytes_per_sec(t));
    hi = std::max(hi, trace->bytes_per_sec(t));
  }
  EXPECT_LT(lo, hi);
  EXPECT_GE(lo, 250'000.0 * 0.7 - 1.0);
  EXPECT_LE(hi, 250'000.0 * 1.3 + 1.0);
}

TEST(RunExperiment, ProducesSaneAggregates) {
  const auto clips = data::generate_dataset(tiny_spec());
  NetworkScenario net;
  net.mbps = 2.0;
  const auto result = run_experiment(SchemeKind::kDive, clips, net);
  EXPECT_EQ(result.scheme, "DiVE");
  EXPECT_EQ(result.frames, 16);
  EXPECT_GE(result.map, 0.0);
  EXPECT_LE(result.map, 1.0);
  EXPECT_GT(result.mean_response_ms, 0.0);
  EXPECT_GE(result.p95_response_ms, result.mean_response_ms * 0.5);
  long state_frames = 0;
  for (int s = 0; s < 3; ++s)
    state_frames += result.frames_by_state[static_cast<std::size_t>(s)];
  EXPECT_EQ(state_frames, result.frames);
}

TEST(RunExperiment, DeterministicAcrossRuns) {
  const auto clips = data::generate_dataset(tiny_spec());
  NetworkScenario net;
  net.mbps = 2.0;
  const auto a = run_experiment(SchemeKind::kDive, clips, net);
  const auto b = run_experiment(SchemeKind::kDive, clips, net);
  EXPECT_DOUBLE_EQ(a.map, b.map);
  EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_DOUBLE_EQ(a.mean_kbytes_per_frame, b.mean_kbytes_per_frame);
}

TEST(RunExperiment, AllSchemesRun) {
  const auto clips = data::generate_dataset(tiny_spec());
  NetworkScenario net;
  net.mbps = 2.0;
  for (auto kind : {SchemeKind::kDive, SchemeKind::kO3, SchemeKind::kEaar,
                    SchemeKind::kDds, SchemeKind::kUniform}) {
    const auto result = run_experiment(kind, clips, net);
    EXPECT_EQ(result.frames, 16) << to_string(kind);
  }
}

TEST(MakeScheme, AppliesOptions) {
  const auto clips = data::generate_dataset(tiny_spec());
  NetworkScenario net;
  SchemeOptions opts;
  opts.search = codec::MotionSearchMethod::kDia;
  opts.fixed_delta = 10;
  auto scheme = make_scheme(SchemeKind::kDive, opts, net, clips[0], 2.0);
  ASSERT_NE(scheme, nullptr);
  EXPECT_NE(dynamic_cast<core::DiveAgent*>(scheme.get()), nullptr);
}

TEST(SchemeNames, Stable) {
  EXPECT_STREQ(to_string(SchemeKind::kDive), "DiVE");
  EXPECT_STREQ(to_string(SchemeKind::kO3), "O3");
  EXPECT_STREQ(to_string(SchemeKind::kEaar), "EAAR");
  EXPECT_STREQ(to_string(SchemeKind::kDds), "DDS");
  EXPECT_STREQ(to_string(SchemeKind::kUniform), "Uniform");
}

}  // namespace
}  // namespace dive::harness
