// Serving-layer scaling sweep: how many agents can one edge node sustain
// before accuracy degrades? Runs the multi-agent scenario at 1/4/16/64
// concurrent sessions against a fixed node (2 workers, batch<=4) and
// reports admission drops, MOT fallbacks, latency, and aggregate mAP.
// With ~163 inferred frames/s of amortized capacity, demand crosses the
// node's limit between 4 sessions (48 f/s) and 16 (192 f/s): drops and
// MOT fallbacks rise, queues stay bounded, and mAP degrades gracefully.
//
// Scale knobs: DIVE_BENCH_FRAMES (frames per session, default 24),
// DIVE_BENCH_SESSIONS (cap on the largest sweep point, default 64).
//
//   ./build/bench/bench_serve_scaling
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_record.h"
#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "obs/obs.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace dive;

  const int frames = util::env_int("DIVE_BENCH_FRAMES", 24);
  const int max_sessions = util::env_int("DIVE_BENCH_SESSIONS", 64);

  util::TextTable table("edge-node scaling (2 workers, batch<=4, deadline 400 ms)");
  table.set_header({"sessions", "frames", "offload%", "drop_q", "drop_dl",
                    "drop_up", "mot", "depth", "batch", "wait_ms", "e2e_ms",
                    "e2e_p95", "mAP"});

  // The largest executed sweep point runs observed: frame ledger +
  // deterministic sim-clock metric timeline (DESIGN.md §15).
  int observed_sessions = 1;
  for (int sessions : {1, 4, 16, 64})
    if (sessions <= max_sessions) observed_sessions = sessions;
  obs::ObsContext obs_ctx;
  obs::MetricsSnapshotter timeline(&obs_ctx.metrics, util::from_millis(250.0));

  bench::BenchRecorder recorder("serve_scaling");
  for (int sessions : {1, 4, 16, 64}) {
    if (sessions > max_sessions) break;
    harness::ServeScenarioOptions opt = harness::default_serve_options();
    opt.sessions = sessions;
    opt.frames_per_session = frames;
    if (sessions == observed_sessions) {
      opt.obs = &obs_ctx;
      opt.timeline = &timeline;
    }
    const harness::ServeScenarioResult r = harness::run_serve_scenario(opt);
    const std::string tag = std::to_string(sessions) + "sessions";
    recorder.add("map." + tag, r.aggregate_map, "mAP");
    recorder.add("e2e_ms." + tag, r.mean_e2e_ms, "ms");
    recorder.add("e2e_p95_ms." + tag, r.p95_e2e_ms, "ms");
    recorder.add("dropped." + tag,
                 static_cast<double>(r.dropped_queue + r.dropped_deadline +
                                     r.dropped_uplink),
                 "count");
    table.add_row({std::to_string(sessions), std::to_string(r.frames),
                   util::TextTable::fmt_pct(r.offload_fraction, 1),
                   std::to_string(r.dropped_queue),
                   std::to_string(r.dropped_deadline),
                   std::to_string(r.dropped_uplink), std::to_string(r.mot),
                   util::TextTable::fmt(r.mean_queue_depth, 2),
                   util::TextTable::fmt(r.mean_batch, 2),
                   util::TextTable::fmt(r.mean_wait_ms, 1),
                   util::TextTable::fmt(r.mean_e2e_ms, 1),
                   util::TextTable::fmt(r.p95_e2e_ms, 1),
                   util::TextTable::fmt(r.aggregate_map, 3)});
  }
  table.print(std::cout);

  // Latency attribution from the observed point's frame ledger: what
  // fraction of each frame's end-to-end budget the stage breakdown
  // names, and whether every drop / deadline miss carries a cause.
  {
    std::printf("\n");
    timeline
        .to_table({"serve.submitted", "serve.completed",
                   "serve.dropped_queue", "serve.dropped_deadline",
                   "serve.e2e_ms.p99"})
        .print(std::cout);
    std::printf("\n");
    obs_ctx.ledger.stage_table().print(std::cout);
    std::printf("\n");
    obs_ctx.ledger.autopsy_table().print(std::cout);

    double attributed = 0.0, e2e = 0.0;
    long terminal = 0;
    long autopsied = 0, autopsy_with_cause = 0;
    for (const obs::FrameRecord& rec : obs_ctx.ledger.records()) {
      if (rec.outcome == obs::FrameOutcome::kPending) continue;
      ++terminal;
      attributed += rec.attributed_ms();
      e2e += rec.e2e_ms();
    }
    for (const obs::FrameLedger::Autopsy& a : obs_ctx.ledger.autopsies()) {
      ++autopsied;
      if (a.dominant_ms > 0.0) ++autopsy_with_cause;
    }
    const double attribution = e2e > 0.0 ? attributed / e2e : 1.0;
    const double coverage =
        autopsied > 0 ? static_cast<double>(autopsy_with_cause) /
                            static_cast<double>(autopsied)
                      : 1.0;
    std::printf(
        "\nledger (%d sessions): %ld terminal frames, %.1f%% of e2e "
        "latency attributed to named stages; %ld/%ld autopsied frames "
        "carry a dominant-stage cause\n",
        observed_sessions, terminal, 100.0 * attribution, autopsy_with_cause,
        autopsied);
    recorder.add("ledger.attribution", attribution, "frac");
    recorder.add("ledger.autopsy_coverage", coverage, "frac");
    recorder.add("ledger.timeline_rows",
                 static_cast<double>(timeline.rows().size()), "count");
  }

  // Determinism spot check: the same seed must reproduce identical
  // metrics (the whole serving layer is event-driven simulated time).
  {
    harness::ServeScenarioOptions opt = harness::default_serve_options();
    opt.sessions = 4;
    opt.frames_per_session = frames;
    const auto a = harness::run_serve_scenario(opt);
    const auto b = harness::run_serve_scenario(opt);
    const bool identical = a.aggregate_map == b.aggregate_map &&
                           a.mean_e2e_ms == b.mean_e2e_ms &&
                           a.p95_e2e_ms == b.p95_e2e_ms &&
                           a.dropped_queue == b.dropped_queue &&
                           a.dropped_deadline == b.dropped_deadline &&
                           a.completed == b.completed;
    std::printf("\ndeterminism check (4 sessions, same seed re-run): %s\n",
                identical ? "identical metrics" : "MISMATCH");
    if (!identical) return 1;
  }
  recorder.write();

  // RoI gating: metadata lane on vs off (BENCH_roi_gating.json). Two
  // questions: (1) accuracy — at a load the node can fully serve, how
  // much mAP does tile-gated inference give up, per ego-motion state;
  // (2) capacity — at a load past saturation, how many more frames does
  // the node complete when gated frames cost work < 1.
  {
    bench::BenchRecorder roi_recorder("roi_gating");

    util::TextTable roi_table("RoI gating: metadata lane off vs on");
    roi_table.set_header({"scenario", "mode", "sessions", "mAP", "gated",
                          "px_frac", "work", "e2e_ms", "done"});
    auto roi_row = [&](const std::string& scenario, const char* mode,
                       int sessions, const harness::ServeScenarioResult& r) {
      roi_table.add_row({scenario, mode, std::to_string(sessions),
                         util::TextTable::fmt(r.aggregate_map, 3),
                         std::to_string(r.gated),
                         util::TextTable::fmt(r.mean_gated_pixel_fraction, 3),
                         util::TextTable::fmt(r.mean_gate_work, 3),
                         util::TextTable::fmt(r.mean_e2e_ms, 1),
                         std::to_string(r.completed)});
    };

    auto run_pair = [&](int sessions, double stop_frac, double turn_frac) {
      harness::ServeScenarioOptions opt = harness::default_serve_options();
      opt.sessions = sessions;
      opt.frames_per_session = frames;
      opt.stop_and_go_fraction = stop_frac;
      opt.turning_fraction = turn_frac;
      const harness::ServeScenarioResult full = harness::run_serve_scenario(opt);
      opt.roi_metadata = true;
      const harness::ServeScenarioResult gated = harness::run_serve_scenario(opt);
      return std::make_pair(full, gated);
    };

    // Accuracy points: light load (every frame served), the clip pool
    // pinned to one ego-motion scenario per run, so the mAP delta is the
    // cost of gated inference in that regime and nothing else.
    struct Scenario {
      const char* label;
      double stop_frac;
      double turn_frac;
    };
    const Scenario kScenarios[] = {{"stop_and_go", 1.0, 0.0},
                                   {"straight", 0.0, 0.0},
                                   {"turning", 0.0, 1.0}};
    const int acc_sessions = std::min(4, max_sessions);
    double pixel_fraction_sum = 0.0;
    int pixel_fraction_n = 0;
    for (const Scenario& sc : kScenarios) {
      const auto [full, gated] =
          run_pair(acc_sessions, sc.stop_frac, sc.turn_frac);
      const std::string label = sc.label;
      roi_recorder.add("map_full." + label, full.aggregate_map, "mAP");
      roi_recorder.add("map_gated." + label, gated.aggregate_map, "mAP");
      roi_recorder.add("map_delta." + label,
                       full.aggregate_map - gated.aggregate_map, "mAP");
      roi_recorder.add("gated_pixel_fraction." + label,
                       gated.mean_gated_pixel_fraction, "frac");
      roi_recorder.add("gate_work_mean." + label, gated.mean_gate_work,
                       "frac");
      roi_recorder.add("gated_frames." + label,
                       static_cast<double>(gated.gated), "count");
      roi_recorder.add("propagated_boxes." + label,
                       static_cast<double>(gated.propagated_boxes), "count");
      roi_recorder.add(
          "sidecar_bytes_per_frame." + label,
          gated.frames > 0 ? static_cast<double>(gated.sidecar_bytes) /
                                 static_cast<double>(gated.frames)
                           : 0.0,
          "count");
      if (gated.gated > 0) {
        pixel_fraction_sum += gated.mean_gated_pixel_fraction;
        ++pixel_fraction_n;
      }
      roi_row(label, "full", acc_sessions, full);
      roi_row(label, "gated", acc_sessions, gated);
    }
    if (pixel_fraction_n > 0) {
      const double mean_px = pixel_fraction_sum / pixel_fraction_n;
      roi_recorder.add("gated_pixel_fraction", mean_px, "frac");
      roi_recorder.add("gated_pixel_drop", 1.0 - mean_px, "frac");
    }

    // Capacity point: past saturation (default profile mix), completed
    // frames measure how much extra session throughput gating buys.
    if (max_sessions >= 16) {
      const auto [full16, gated16] = run_pair(16, 0.25, 0.2);
      roi_recorder.add("completed_full.16sessions",
                       static_cast<double>(full16.completed), "count");
      roi_recorder.add("completed_gated.16sessions",
                       static_cast<double>(gated16.completed), "count");
      if (full16.completed > 0) {
        roi_recorder.add("capacity_gain.16sessions",
                         static_cast<double>(gated16.completed) /
                             static_cast<double>(full16.completed),
                         "x");
      }
      roi_row("mixed", "full", 16, full16);
      roi_row("mixed", "gated", 16, gated16);
    }
    roi_table.print(std::cout);
    roi_recorder.write();
  }
  return 0;
}
