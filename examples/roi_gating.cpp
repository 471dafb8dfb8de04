// Compressed-domain RoI gating walkthrough: the same multi-agent serving
// scenario run twice — metadata lane off (every offloaded frame pays
// full-frame inference) and on (agents ship their foreground hulls as a
// sidecar; each session's EdgeServer reads motion and SKIP flags from
// the bitstream it decodes, masks background tiles and infers only where
// the compressed domain says something is happening). The gate propagates
// background boxes by mean-MV shift, keeps the horizon band lit for
// appearing far-field objects, and falls back to full-frame when
// coverage is too high — accuracy stays at full-frame level while the
// detector looks at roughly half the pixels, which the scheduler turns
// into lower latency / higher session capacity.
//
//   ./build/examples/roi_gating
#include <cstdio>
#include <iostream>

#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace dive;
  using util::TextTable;

  harness::ServeScenarioOptions opt = harness::default_serve_options();
  opt.sessions = util::env_int("DIVE_BENCH_SESSIONS", 12);
  opt.frames_per_session = util::env_int("DIVE_BENCH_FRAMES", 24);

  std::printf(
      "%d agents on one edge node (%d workers, batch<=%zu), "
      "full-frame vs RoI-gated inference\n\n",
      opt.sessions, opt.node.scheduler.workers, opt.node.scheduler.max_batch);

  TextTable table;
  table.set_header({"mode", "mAP", "gated", "full", "px_frac", "work",
                    "prop_boxes", "sidecar_B/frame", "e2e_ms", "done"});
  harness::ServeScenarioResult results[2];
  for (int roi = 0; roi < 2; ++roi) {
    opt.roi_metadata = roi != 0;
    results[roi] = harness::run_serve_scenario(opt);
    const harness::ServeScenarioResult& r = results[roi];
    const double sidecar_per_frame =
        r.frames > 0
            ? static_cast<double>(r.sidecar_bytes) / static_cast<double>(r.frames)
            : 0.0;
    table.add_row({roi ? "gated" : "full", TextTable::fmt(r.aggregate_map, 3),
                   std::to_string(r.gated), std::to_string(r.full_inference),
                   TextTable::fmt(r.mean_gated_pixel_fraction, 3),
                   TextTable::fmt(r.mean_gate_work, 3),
                   std::to_string(r.propagated_boxes),
                   TextTable::fmt(sidecar_per_frame, 1),
                   TextTable::fmt(r.mean_e2e_ms, 1),
                   std::to_string(r.completed)});
  }
  table.print(std::cout);

  const harness::ServeScenarioResult& full = results[0];
  const harness::ServeScenarioResult& gated = results[1];
  std::printf(
      "\nmAP delta %+.3f | detector pixels x%.2f on gated frames | "
      "e2e %.1f -> %.1f ms\n",
      gated.aggregate_map - full.aggregate_map,
      gated.mean_gated_pixel_fraction, full.mean_e2e_ms, gated.mean_e2e_ms);
  std::printf(
      "the sidecar costs %.0f bytes/frame on the uplink and buys the node "
      "a %.0f%% smaller inference bill;\nthe video bitstream is untouched "
      "— gating is pure metadata on the side.\n",
      gated.frames > 0 ? static_cast<double>(gated.sidecar_bytes) /
                             static_cast<double>(gated.frames)
                       : 0.0,
      100.0 * (1.0 - gated.mean_gate_work));
  return 0;
}
