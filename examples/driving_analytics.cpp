// Driving analytics: compares all analytics schemes on the same urban
// driving scenario — the paper's motivating workload (autonomous-driving
// perception offloaded to the edge). Reports accuracy, response time, and
// bytes on the wire, and renders one frame with DiVE's detections drawn
// in as a PGM image you can open with any viewer.
//
//   ./build/examples/driving_analytics [mbps]
//
// Profiling: set DIVE_TRACE_OUT=/path/to/trace.json to run the final
// DiVE pass with tracing on and write a Chrome trace-event file (open it
// at ui.perfetto.dev); a metrics table for the same run is printed to
// stdout. DIVE_LEDGER_OUT=/path/to/ledger.json writes the same pass's
// frame ledger for tools/trace_report.py. DIVE_BENCH_CLIPS /
// DIVE_BENCH_FRAMES scale the dataset.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "harness/experiment.h"
#include "obs/obs.h"
#include "util/table.h"
#include "video/image_ops.h"

int main(int argc, char** argv) {
  using namespace dive;
  const double mbps = argc > 1 ? std::atof(argv[1]) : 2.0;

  std::printf("urban driving scenario, %.1f Mbps uplink\n\n", mbps);
  const auto spec = data::nuscenes_like(
      harness::env_int("DIVE_BENCH_CLIPS", 2),
      harness::env_int("DIVE_BENCH_FRAMES", 48));
  const auto clips = data::generate_dataset(spec);

  harness::NetworkScenario net;
  net.mbps = mbps;

  util::TextTable table("scheme comparison");
  table.set_header({"scheme", "mAP", "AP car", "AP ped", "resp (ms)",
                    "p95 (ms)", "kB/frame", "offloaded"});
  for (const auto kind :
       {harness::SchemeKind::kDive, harness::SchemeKind::kDds,
        harness::SchemeKind::kEaar, harness::SchemeKind::kO3,
        harness::SchemeKind::kUniform}) {
    const auto r = harness::run_experiment(kind, clips, net);
    table.add_row({r.scheme, util::TextTable::fmt(r.map, 3),
                   util::TextTable::fmt(r.ap_car, 3),
                   util::TextTable::fmt(r.ap_ped, 3),
                   util::TextTable::fmt(r.mean_response_ms, 1),
                   util::TextTable::fmt(r.p95_response_ms, 1),
                   util::TextTable::fmt(r.mean_kbytes_per_frame, 1),
                   util::TextTable::fmt_pct(r.offload_fraction, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Render one annotated frame: run DiVE on a clip and draw its final
  // detections into the raw frame. With DIVE_TRACE_OUT or DIVE_LEDGER_OUT
  // set this pass is also the profiled one: full metrics plus a
  // Perfetto-loadable trace and/or the frame ledger.
  const char* trace_out = std::getenv("DIVE_TRACE_OUT");
  const char* ledger_out = std::getenv("DIVE_LEDGER_OUT");
  const bool want_trace = trace_out != nullptr && *trace_out != '\0';
  const bool want_ledger = ledger_out != nullptr && *ledger_out != '\0';
  obs::ObsContext obs_ctx;
  harness::SchemeOptions render_opts;
  if (want_trace || want_ledger) {
    obs_ctx.tracer.set_enabled(true);
    render_opts.obs = &obs_ctx;
  }
  auto scheme = harness::make_scheme(harness::SchemeKind::kDive, render_opts,
                                     net, clips[0],
                                     clips[0].frame_count() / clips[0].fps);
  core::FrameOutcome last;
  for (const auto& rec : clips[0].frames)
    last = scheme->process_frame(rec.image, util::from_seconds(rec.timestamp));
  video::Frame annotated = clips[0].frames.back().image;
  for (const auto& det : last.detections) video::draw_box(annotated, det.box);
  std::ofstream out("driving_analytics_frame.pgm", std::ios::binary);
  const std::string pgm = video::to_pgm(annotated.y);
  out.write(pgm.data(), static_cast<std::streamsize>(pgm.size()));
  std::printf("wrote driving_analytics_frame.pgm (%zu detections drawn)\n",
              last.detections.size());

  if (render_opts.obs != nullptr) {
    if (want_trace) {
      if (!obs_ctx.tracer.write_chrome_json(trace_out, obs::TraceClock::kSim,
                                            &obs_ctx.ledger)) {
        std::fprintf(stderr, "failed to write trace to %s\n", trace_out);
        return 1;
      }
      std::printf("wrote %s (open at ui.perfetto.dev)\n", trace_out);
    }
    if (want_ledger) {
      if (!obs_ctx.ledger.write_json(ledger_out)) {
        std::fprintf(stderr, "failed to write ledger to %s\n", ledger_out);
        return 1;
      }
      std::printf("wrote %s (%zu frames; render with tools/trace_report.py)\n",
                  ledger_out, obs_ctx.ledger.size());
    }
    std::printf("\n");
    obs_ctx.metrics.to_table().print(std::cout);
  }
  return 0;
}
