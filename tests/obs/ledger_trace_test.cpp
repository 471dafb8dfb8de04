// One record per sim-time stage: the frame ledger is the only writer of a
// frame's stage intervals, and the kSim Chrome export derives their spans
// from it. For a DiVE agent run and for a multi-session serve run, every
// set ledger stage must appear in the export exactly once, at its ledger
// interval, on its mapped track, carrying its frame's flow id — so no
// pipeline layer can write a second copy of a stage without failing here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "obs/obs.h"

namespace dive::obs {
namespace {

/// One "X" event of the export plus the id of the flow event that the
/// exporter emits right after it (0 when the span is in no flow).
struct Exported {
  std::string name;
  long long tid = 0, ts = 0, dur = 0, session = -1, frame = -1;
  long long flow = 0;
};

long long number_after(const std::string& obj, const std::string& key) {
  const std::size_t at = obj.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(obj.c_str() + at + key.size());
}

/// Splits the traceEvents array into its top-level objects (names hold
/// no braces, so brace depth finds the object bounds) and keeps the X
/// events, each tagged with the flow id that follows it.
std::vector<Exported> exported_spans(const std::string& json) {
  std::vector<Exported> out;
  std::size_t at = json.find("\"traceEvents\":[");
  if (at == std::string::npos) return out;
  at = json.find('{', at);
  while (at != std::string::npos) {
    int depth = 0;
    std::size_t end = at;
    for (; end < json.size(); ++end) {
      if (json[end] == '{') ++depth;
      if (json[end] == '}' && --depth == 0) break;
    }
    const std::string obj = json.substr(at, end - at + 1);
    if (obj.rfind("{\"ph\":\"X\"", 0) == 0) {
      Exported ev;
      const std::size_t name_at = obj.find("\"name\":\"") + 8;
      ev.name = obj.substr(name_at, obj.find('"', name_at) - name_at);
      ev.tid = number_after(obj, "\"tid\":");
      ev.ts = number_after(obj, "\"ts\":");
      ev.dur = number_after(obj, "\"dur\":");
      ev.session = number_after(obj, "\"session\":");
      ev.frame = number_after(obj, "\"frame\":");
      out.push_back(ev);
    } else if (obj.find("\"cat\":\"flow\"") != std::string::npos &&
               !out.empty()) {
      out.back().flow = number_after(obj, "\"id\":");
    }
    at = json.find('{', end + 1);
  }
  return out;
}

/// Stage names and tracks exactly as DESIGN §10 maps them.
const char* const kStageSpan[kFrameStageCount] = {
    "agent.encode",        "agent.sidecar",    "net.uplink_queue",
    "net.transmit",        "net.propagation",  "edge.admission_wait",
    "edge.batch_wait",     "edge.inference",   "edge.result",
};

std::uint32_t mapped_track(std::size_t stage, std::uint32_t session) {
  const std::string name = kStageSpan[stage];
  return name.rfind("net.", 0) == 0 ? kTrackNet : kTrackSessionBase + session;
}

/// Checks the one-record contract on a finished run; returns the number
/// of set stages it matched (so callers can assert the run did work).
std::size_t expect_one_span_per_stage(const ObsContext& ctx) {
  const std::vector<Exported> spans =
      exported_spans(ctx.tracer.to_chrome_json(TraceClock::kSim, &ctx.ledger));
  std::map<std::pair<std::string, long long>, std::vector<Exported>> by_key;
  std::size_t stage_named = 0;
  for (const Exported& ev : spans) {
    // The agent's host-time ScopedSpans sit on the agent/codec tracks;
    // "agent.encode" there times the encode call, not the sim stage.
    const bool sim_track = ev.tid == kTrackNet || ev.tid >= kTrackSessionBase;
    for (const char* name : kStageSpan)
      if (sim_track && ev.name == name) ++stage_named;
    by_key[{ev.name, ev.flow}].push_back(ev);
  }

  std::size_t set_stages = 0;
  for (const FrameRecord& rec : ctx.ledger.records()) {
    for (std::size_t i = 0; i < kFrameStageCount; ++i) {
      const FrameRecord::StageSpan& stage = rec.stages[i];
      if (!stage.set) continue;
      ++set_stages;
      const auto it = by_key.find(
          {kStageSpan[i], static_cast<long long>(rec.ctx.flow_id())});
      if (it == by_key.end()) {
        ADD_FAILURE() << kStageSpan[i] << " missing for seq "
                      << rec.ctx.sequence;
        continue;
      }
      EXPECT_EQ(it->second.size(), 1u)
          << kStageSpan[i] << " written twice for seq " << rec.ctx.sequence;
      const Exported& ev = it->second.front();
      EXPECT_EQ(ev.tid, mapped_track(i, rec.ctx.session_id)) << ev.name;
      EXPECT_EQ(ev.ts, stage.begin) << ev.name;
      EXPECT_EQ(ev.dur, stage.end - stage.begin) << ev.name;
      EXPECT_EQ(ev.session, rec.ctx.session_id) << ev.name;
      EXPECT_EQ(ev.frame, static_cast<long long>(rec.ctx.frame_index))
          << ev.name;
    }
  }
  // No stage-named span exists on the net or session tracks beyond the
  // ledger's own: nothing else writes a stage a second time, flow-tagged
  // or not.
  EXPECT_EQ(stage_named, set_stages);
  return set_stages;
}

TEST(LedgerTrace, DiveAgentStagesAppearOnceInTheSimExport) {
  auto spec = data::nuscenes_like(2, 16);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  const auto clips = data::generate_dataset(spec);
  harness::NetworkScenario net;
  net.outage_interval_s = 1.0;
  net.outage_duration_s = 0.5;
  net.first_outage_s = 0.5;

  ObsContext ctx;
  ctx.tracer.set_enabled(true);
  harness::SchemeOptions options;
  options.roi_metadata = true;
  options.obs = &ctx;
  const harness::RunResult r =
      harness::run_experiment(harness::SchemeKind::kDive, clips, net, options);
  ASSERT_GT(r.frames, 0);

  std::size_t drops = 0, completed = 0;
  for (const FrameRecord& rec : ctx.ledger.records()) {
    if (rec.outcome == FrameOutcome::kDroppedUplink) ++drops;
    if (rec.outcome == FrameOutcome::kCompleted) ++completed;
  }
  EXPECT_GT(drops, 0u) << "outages too short to exercise the drop path";
  EXPECT_GT(completed, 0u);
  EXPECT_GT(expect_one_span_per_stage(ctx), 0u);
}

TEST(LedgerTrace, ServeSessionStagesAppearOnceInTheSimExport) {
  ObsContext ctx;
  ctx.tracer.set_enabled(true);
  harness::ServeScenarioOptions opt = harness::default_serve_options();
  opt.sessions = 4;
  opt.frames_per_session = 8;
  opt.width = 128;
  opt.height = 80;
  opt.clip_pool = 1;
  opt.roi_metadata = true;
  opt.obs = &ctx;
  const harness::ServeScenarioResult r = harness::run_serve_scenario(opt);
  ASSERT_GT(r.completed, 0);
  EXPECT_GT(expect_one_span_per_stage(ctx), 0u);
}

}  // namespace
}  // namespace dive::obs
