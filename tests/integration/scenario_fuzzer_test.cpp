// Scenario fuzzer: sweeps hostile conditions x motion states x bandwidth
// traces through harness::run_experiment (one agent, its uplink and a
// private EdgeServer; no serve node) and asserts the per-condition
// accuracy / response-time envelopes hold (DESIGN.md §16).
// The ctest sweep is a reduced-frame version of bench_scenarios; a failing
// case is reproducible from its repro_line().
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/scenario_fuzzer.h"

namespace dive::harness {
namespace {

FuzzerOptions test_options() {
  FuzzerOptions opt;
  // Smaller clips than the bench: the sweep breadth is the point here,
  // not the per-case sample size.
  opt.frames_per_clip = 32;
  return opt;
}

// The headline acceptance sweep: every condition x every motion state
// under the ample uplink stays inside its accuracy/latency envelope.
TEST(ScenarioFuzzer, ConditionMotionMatrixInsideEnvelopes) {
  FuzzerOptions opt = test_options();
  opt.bandwidths = {BandwidthProfile::kAmple};
  const FuzzerReport report = run_scenario_fuzzer(opt);

  EXPECT_EQ(report.outcomes.size(),
            static_cast<std::size_t>(kConditionCount * kMotionProfileCount));
  for (const ScenarioOutcome& out : report.outcomes) {
    EXPECT_TRUE(out.pass()) << repro_line(out.scenario) << " violated: "
                            << (out.violations.empty()
                                    ? std::string("?")
                                    : out.violations.front());
  }
  EXPECT_EQ(report.failures, 0);
  EXPECT_TRUE(report.failing_repro_lines.empty());

  // Coverage: all conditions and all motion states actually appeared.
  std::set<Condition> conds;
  std::set<MotionProfile> motions;
  for (const ScenarioOutcome& out : report.outcomes) {
    conds.insert(out.scenario.condition);
    motions.insert(out.scenario.motion);
  }
  EXPECT_EQ(conds.size(), static_cast<std::size_t>(kConditionCount));
  EXPECT_GE(conds.size(), 5u);  // ISSUE floor: >= 5 conditions
  EXPECT_EQ(motions.size(), static_cast<std::size_t>(kMotionProfileCount));
}

// Hostile networks on the clear world: constrained and outage profiles
// stay inside their (relaxed) envelopes.
TEST(ScenarioFuzzer, BandwidthSweepInsideEnvelopes) {
  FuzzerOptions opt = test_options();
  opt.conditions = {Condition::kClear};
  opt.motions = {MotionProfile::kStraight};
  const FuzzerReport report = run_scenario_fuzzer(opt);

  EXPECT_EQ(report.outcomes.size(),
            static_cast<std::size_t>(kBandwidthProfileCount));
  for (const ScenarioOutcome& out : report.outcomes)
    EXPECT_TRUE(out.pass()) << repro_line(out.scenario);
  EXPECT_EQ(report.failures, 0);
}

// Conditions must actually bite: night degrades accuracy relative to the
// clear daylight run of the same motion profile (otherwise the envelopes
// are testing nothing).
TEST(ScenarioFuzzer, NightDegradesAccuracyVsClear) {
  FuzzerOptions opt = test_options();
  opt.motions = {MotionProfile::kStraight};
  opt.bandwidths = {BandwidthProfile::kAmple};

  opt.conditions = {Condition::kClear};
  const FuzzerReport clear = run_scenario_fuzzer(opt);
  opt.conditions = {Condition::kNight};
  const FuzzerReport night = run_scenario_fuzzer(opt);

  ASSERT_EQ(clear.outcomes.size(), 1u);
  ASSERT_EQ(night.outcomes.size(), 1u);
  EXPECT_LT(night.outcomes[0].result.map, clear.outcomes[0].result.map);
  // ... but the envelope still guarantees it tracks.
  EXPECT_TRUE(night.outcomes[0].pass());
}

// Same options -> same report (the repro-line contract depends on it).
TEST(ScenarioFuzzer, Deterministic) {
  FuzzerOptions opt = test_options();
  opt.conditions = {Condition::kTunnel, Condition::kVibration};
  opt.motions = {MotionProfile::kTurning};
  opt.bandwidths = {BandwidthProfile::kAmple};

  const FuzzerReport a = run_scenario_fuzzer(opt);
  const FuzzerReport b = run_scenario_fuzzer(opt);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].result.map, b.outcomes[i].result.map);
    EXPECT_EQ(a.outcomes[i].result.mean_response_ms,
              b.outcomes[i].result.mean_response_ms);
    EXPECT_EQ(a.outcomes[i].scenario.seed, b.outcomes[i].scenario.seed);
  }
}

// Seed derivation is a pure function of the tuple: sweeping a subset of
// the cross product yields the same per-case seed as the full sweep.
TEST(ScenarioFuzzer, SeedsStableAcrossSubsetSweeps) {
  FuzzerOptions full = test_options();
  full.frames_per_clip = 8;  // seeds only; keep the run cheap
  full.bandwidths = {BandwidthProfile::kAmple};
  const FuzzerReport full_report = run_scenario_fuzzer(full);

  FuzzerOptions sub = full;
  sub.conditions = {Condition::kFog};
  sub.motions = {MotionProfile::kTurning};
  const FuzzerReport sub_report = run_scenario_fuzzer(sub);
  ASSERT_EQ(sub_report.outcomes.size(), 1u);

  bool found = false;
  for (const ScenarioOutcome& out : full_report.outcomes) {
    if (out.scenario.condition == Condition::kFog &&
        out.scenario.motion == MotionProfile::kTurning) {
      EXPECT_EQ(out.scenario.seed, sub_report.outcomes[0].scenario.seed);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioFuzzer, ReproLineFormat) {
  ScenarioCase c;
  c.condition = Condition::kFog;
  c.motion = MotionProfile::kTurning;
  c.bandwidth = BandwidthProfile::kOutage;
  c.seed = 12345;
  EXPECT_EQ(repro_line(c),
            "scenario_fuzzer --condition fog --motion turning "
            "--bandwidth outage --seed 12345");
}

TEST(ScenarioFuzzer, EnvelopeRelaxesUnderHostileNetworks) {
  const ScenarioEnvelope ample =
      envelope_for(Condition::kNight, BandwidthProfile::kAmple);
  const ScenarioEnvelope outage =
      envelope_for(Condition::kNight, BandwidthProfile::kOutage);
  EXPECT_LT(outage.min_map, ample.min_map);
  EXPECT_GT(outage.max_mean_response_ms, ample.max_mean_response_ms);
  EXPECT_GT(outage.max_p95_response_ms, ample.max_p95_response_ms);
}

}  // namespace
}  // namespace dive::harness
