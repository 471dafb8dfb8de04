// Causal-tracing determinism (the tentpole acceptance check): the
// multi-agent serve scenario with observability attached must export
// byte-identical sim-clock traces, frame ledgers, and metric timelines
// for every encoder thread count. Flow ids are ledger mint sequences
// assigned in global capture order on the orchestrating thread, and
// every span/stage timestamp is simulated — nothing observable may
// depend on worker interleaving.
//
// The same run also locks the attribution contract: every terminal
// frame's stage intervals sum to its end-to-end latency (100%, well
// past the >= 95% acceptance floor) and every dropped-or-late frame
// names a dominant stage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/serve_scenario.h"
#include "obs/obs.h"

namespace dive {
namespace {

struct ObsExports {
  std::string trace;
  std::string ledger;
  std::string timeline;
  std::vector<obs::FrameRecord> records;
  long completed = 0, dropped = 0, mot = 0;
};

/// Heavier load than the tier-1 serve tests (20 sessions at ~12 fps =
/// ~240 inferred frames/s against the default node's ~163 f/s) so the
/// scenario exercises admission waits, deadline drops, and MOT
/// fallbacks — the paths whose observability is under test — while
/// staying fast enough for the differential label.
ObsExports run_observed(int encoder_threads, bool roi_metadata) {
  obs::ObsContext ctx;
  ctx.tracer.set_enabled(true);
  obs::MetricsSnapshotter timeline(&ctx.metrics, util::from_millis(250.0));

  harness::ServeScenarioOptions opt = harness::default_serve_options();
  opt.sessions = 20;
  opt.frames_per_session = 12;
  opt.encoder_threads = encoder_threads;
  opt.roi_metadata = roi_metadata;
  opt.obs = &ctx;
  opt.timeline = &timeline;
  const harness::ServeScenarioResult r = harness::run_serve_scenario(opt);

  ObsExports out;
  out.trace = ctx.tracer.to_chrome_json(obs::TraceClock::kSim, &ctx.ledger);
  out.ledger = ctx.ledger.to_json();
  out.timeline = timeline.to_csv();
  out.records = ctx.ledger.records();
  out.completed = r.completed;
  out.dropped = r.dropped_queue + r.dropped_deadline + r.dropped_uplink;
  out.mot = r.mot;
  return out;
}

TEST(TraceFlowDeterminism, ExportsByteIdenticalAcrossEncoderThreads) {
  const ObsExports one = run_observed(1, false);
  ASSERT_FALSE(one.trace.empty());
  ASSERT_FALSE(one.records.empty());
  for (const int threads : {2, 8}) {
    const ObsExports other = run_observed(threads, false);
    EXPECT_EQ(one.trace, other.trace) << "threads=" << threads;
    EXPECT_EQ(one.ledger, other.ledger) << "threads=" << threads;
    EXPECT_EQ(one.timeline, other.timeline) << "threads=" << threads;
  }
}

TEST(TraceFlowDeterminism, RoiLaneExportsAreDeterministicToo) {
  const ObsExports one = run_observed(1, true);
  const ObsExports eight = run_observed(8, true);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.ledger, eight.ledger);
  EXPECT_EQ(one.timeline, eight.timeline);
  // The sidecar stage appears exactly on the metadata lane.
  EXPECT_NE(one.ledger.find("\"stage\":\"sidecar\""), std::string::npos);
}

TEST(TraceFlowDeterminism, StagesAttributeEveryTerminalFrame) {
  const ObsExports run = run_observed(1, false);
  // The load must actually exercise the contested paths.
  EXPECT_GT(run.completed, 0);
  EXPECT_GT(run.dropped, 0) << "load too light to test the autopsy";

  long terminal = 0, autopsied = 0;
  for (const obs::FrameRecord& rec : run.records) {
    if (rec.outcome == obs::FrameOutcome::kPending) continue;
    ++terminal;
    // Stage intervals tile [capture, finished] with no gaps: attribution
    // is exact, not just >= 95%.
    EXPECT_NEAR(rec.attributed_ms(), rec.e2e_ms(), 1e-9)
        << "seq " << rec.ctx.sequence << " outcome "
        << obs::to_string(rec.outcome);
    if (obs::is_drop(rec.outcome) ||
        rec.outcome == obs::FrameOutcome::kCompletedLate) {
      ++autopsied;
      // Every miss names a cause: at least one stage recorded, and the
      // dominant one holds real time.
      EXPECT_GT(rec.attributed_ms(), 0.0);
      EXPECT_GT(rec.stage_ms(rec.dominant_stage()), 0.0);
    }
  }
  EXPECT_EQ(terminal, static_cast<long>(run.records.size()))
      << "every minted frame must reach a terminal outcome after drain";
  EXPECT_GT(autopsied, 0);
}

TEST(TraceFlowDeterminism, FlowChainsAreWellFormedInTheExport) {
  const ObsExports run = run_observed(1, false);
  // Chrome flow semantics: every chain is s (t)* f with a shared id.
  // Count phases per id with a cheap scan (the export is one line).
  std::size_t starts = 0, finishes = 0;
  for (std::size_t pos = run.trace.find("\"cat\":\"flow\"");
       pos != std::string::npos;
       pos = run.trace.find("\"cat\":\"flow\"", pos + 1)) {
    // The ph key precedes cat within the same object in our emitter.
    const std::size_t obj = run.trace.rfind("{\"ph\":\"", pos);
    ASSERT_NE(obj, std::string::npos);
    const char ph = run.trace[obj + 7];
    if (ph == 's') ++starts;
    if (ph == 'f') ++finishes;
  }
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);  // every opened chain terminates
}

}  // namespace
}  // namespace dive
