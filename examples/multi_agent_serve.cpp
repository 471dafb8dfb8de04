// Multi-agent serving quickstart: eight mobile agents stream one edge
// node with two batched inference workers (src/serve/). Shows the
// session/admission/scheduler pipeline end to end — per-session queue
// bounds, deadline-aware drops, batching amortization — and that rejected
// frames degrade gracefully into MOT instead of unbounded queueing.
//
// Observability walkthrough (DESIGN.md §15): every captured frame gets a
// FrameTraceContext, so the exports carry per-frame causality:
//   DIVE_TRACE_OUT=serve_trace.json   Perfetto trace; the "frame" flow
//                                     arrows link one frame's encode →
//                                     uplink → admission → inference
//                                     spans (derived from the ledger)
//                                     across tracks.
//   DIVE_LEDGER_OUT=serve_ledger.json Per-frame stage breakdown for
//                                     tools/trace_report.py.
// Either variable also prints the ledger's stage / session / autopsy
// tables (latency attribution + deadline-miss causes).
//
//   ./build/examples/multi_agent_serve
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "obs/obs.h"
#include "util/env.h"
#include "util/table.h"

int main() {
  using namespace dive;

  harness::ServeScenarioOptions opt = harness::default_serve_options();
  opt.sessions = util::env_int("DIVE_BENCH_SESSIONS", 8);
  opt.frames_per_session = util::env_int("DIVE_BENCH_FRAMES", 36);

  std::printf(
      "serving %d agents on one edge node: %d workers, batch<=%zu "
      "(%.0f ms window), queue<=%zu, deadline %.0f ms\n\n",
      opt.sessions, opt.node.scheduler.workers, opt.node.scheduler.max_batch,
      util::to_millis(opt.node.scheduler.batch_window),
      opt.node.admission.max_queue,
      util::to_millis(opt.node.session.deadline));

  const char* trace_out = std::getenv("DIVE_TRACE_OUT");
  const char* ledger_out = std::getenv("DIVE_LEDGER_OUT");
  const bool observed = (trace_out != nullptr && *trace_out != '\0') ||
                        (ledger_out != nullptr && *ledger_out != '\0');
  obs::ObsContext obs_ctx;
  if (observed) {
    obs_ctx.tracer.set_enabled(true);
    opt.obs = &obs_ctx;
  }

  const harness::ServeScenarioResult r = harness::run_serve_scenario(opt);

  r.metrics.session_table().print(std::cout);
  std::printf("\n");
  r.metrics.summary_table().print(std::cout);

  std::printf(
      "\naggregate mAP %.3f | offloaded %.0f%% of %ld frames | "
      "mean batch %.2f | e2e %.1f ms (p95 %.1f)\n",
      r.aggregate_map, 100.0 * r.offload_fraction, r.frames, r.mean_batch,
      r.mean_e2e_ms, r.p95_e2e_ms);
  std::printf(
      "%ld frames fell back to offline tracking (queue-full %ld, "
      "deadline %ld, uplink %ld) — overload degrades like a link outage,\n"
      "accuracy decays smoothly instead of queues growing without bound.\n",
      r.mot, r.dropped_queue, r.dropped_deadline, r.dropped_uplink);

  if (observed) {
    std::printf("\n");
    obs_ctx.ledger.stage_table().print(std::cout);
    std::printf("\n");
    obs_ctx.ledger.session_table().print(std::cout);
    std::printf("\n");
    obs_ctx.ledger.autopsy_table().print(std::cout);
    if (trace_out != nullptr && *trace_out != '\0') {
      if (!obs_ctx.tracer.write_chrome_json(trace_out, obs::TraceClock::kSim,
                                            &obs_ctx.ledger)) {
        std::fprintf(stderr, "failed to write trace to %s\n", trace_out);
        return 1;
      }
      std::printf(
          "\nwrote %s (open at ui.perfetto.dev — the \"frame\" flow "
          "arrows\nfollow one frame across codec/net/session tracks)\n",
          trace_out);
    }
    if (ledger_out != nullptr && *ledger_out != '\0') {
      if (!obs_ctx.ledger.write_json(ledger_out)) {
        std::fprintf(stderr, "failed to write ledger to %s\n", ledger_out);
        return 1;
      }
      std::printf(
          "wrote %s (%zu frames; render with tools/trace_report.py)\n",
          ledger_out, obs_ctx.ledger.size());
    }
  }
  return 0;
}
