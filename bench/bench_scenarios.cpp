// Hostile-conditions scenario matrix: runs the scenario fuzzer over
// {condition} x {motion state} (plus a bandwidth sweep on the clear
// scenario), printing the accuracy/latency matrix and emitting
// BENCH_scenarios.json so a regression in any condition is visible per
// PR (the baseline is pinned in bench/baselines/). Exits nonzero when
// any case violates its accuracy/response-time envelope and prints a
// one-line repro for each failing case (uploaded as a CI artifact).
//
// Scale knobs: DIVE_BENCH_FRAMES (frames per clip, default 36),
// DIVE_BENCH_SEEDS (seeds per case, default 1).
//
//   ./build/bench/bench_scenarios
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_record.h"
#include "harness/scenario_fuzzer.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace dive;

  harness::FuzzerOptions opt;
  opt.frames_per_clip = util::env_int("DIVE_BENCH_FRAMES", 36);
  opt.seeds_per_case = util::env_int("DIVE_BENCH_SEEDS", 1);

  // Condition x motion matrix under the ample-bandwidth profile: the
  // weather/scene dimension with the network held comfortable.
  opt.bandwidths = {harness::BandwidthProfile::kAmple};
  const harness::FuzzerReport matrix = harness::run_scenario_fuzzer(opt);

  // Bandwidth dimension on the clear/straight scenario: the network
  // dimension with the world held easy.
  harness::FuzzerOptions bw_opt = opt;
  bw_opt.conditions = {harness::Condition::kClear};
  bw_opt.motions = {harness::MotionProfile::kStraight};
  bw_opt.bandwidths = {harness::BandwidthProfile::kAmple,
                       harness::BandwidthProfile::kConstrained,
                       harness::BandwidthProfile::kOutage};
  const harness::FuzzerReport bw = harness::run_scenario_fuzzer(bw_opt);

  bench::BenchRecorder recorder("scenarios");

  util::TextTable table("scenario matrix (DiVE agent, ample uplink)");
  table.set_header({"condition", "motion", "mAP", "floor", "mean_ms",
                    "p95_ms", "offload%", "kB/frame", "ok"});
  for (const harness::ScenarioOutcome& out : matrix.outcomes) {
    const std::string cond = harness::to_string(out.scenario.condition);
    const std::string motion = harness::to_string(out.scenario.motion);
    const std::string tag = cond + "." + motion;
    recorder.add("map." + tag, out.result.map, "mAP");
    recorder.add("mean_ms." + tag, out.result.mean_response_ms, "ms");
    recorder.add("p95_ms." + tag, out.result.p95_response_ms, "ms");
    table.add_row({cond, motion, util::TextTable::fmt(out.result.map, 3),
                   util::TextTable::fmt(out.envelope.min_map, 2),
                   util::TextTable::fmt(out.result.mean_response_ms, 1),
                   util::TextTable::fmt(out.result.p95_response_ms, 1),
                   util::TextTable::fmt_pct(out.result.offload_fraction, 1),
                   util::TextTable::fmt(out.result.mean_kbytes_per_frame, 2),
                   out.pass() ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::printf("\n");
  util::TextTable bw_table("bandwidth sweep (clear world, straight drive)");
  bw_table.set_header(
      {"bandwidth", "mAP", "floor", "mean_ms", "p95_ms", "offload%", "ok"});
  for (const harness::ScenarioOutcome& out : bw.outcomes) {
    const std::string tag = harness::to_string(out.scenario.bandwidth);
    recorder.add("bw." + tag + ".map", out.result.map, "mAP");
    recorder.add("bw." + tag + ".mean_ms", out.result.mean_response_ms, "ms");
    recorder.add("bw." + tag + ".p95_ms", out.result.p95_response_ms, "ms");
    bw_table.add_row({tag, util::TextTable::fmt(out.result.map, 3),
                      util::TextTable::fmt(out.envelope.min_map, 2),
                      util::TextTable::fmt(out.result.mean_response_ms, 1),
                      util::TextTable::fmt(out.result.p95_response_ms, 1),
                      util::TextTable::fmt_pct(out.result.offload_fraction, 1),
                      out.pass() ? "yes" : "NO"});
  }
  bw_table.print(std::cout);

  const int failures = matrix.failures + bw.failures;
  const int cases = static_cast<int>(matrix.outcomes.size() +
                                     bw.outcomes.size());
  recorder.add("cases", static_cast<double>(cases), "count");
  recorder.add("failures", static_cast<double>(failures), "count");
  recorder.write();

  // Failing-seed repro lines: printed, and written next to the bench
  // record when DIVE_BENCH_OUT is set so CI can upload them.
  if (failures > 0) {
    std::printf("\n%d envelope violation(s):\n", failures);
    std::string repro_text;
    for (const harness::FuzzerReport* rep : {&matrix, &bw})
      for (const harness::ScenarioOutcome& out : rep->outcomes)
        for (const std::string& v : out.violations) {
          std::printf("  %s\n", v.c_str());
          repro_text += v + "\n";
        }
    if (const char* dir = std::getenv("DIVE_BENCH_OUT")) {
      std::ofstream f(std::string(dir) + "/scenario_repro.txt");
      f << repro_text;
    }
  } else {
    std::printf("\nall %d scenario cases inside their envelopes\n", cases);
  }
  return failures > 0 ? 1 : 0;
}
