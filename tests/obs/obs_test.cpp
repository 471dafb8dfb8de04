// Observability layer: registry semantics, deterministic exports, tracer
// span bookkeeping, and — under the tsan preset — concurrent recording
// from the encoder worker pool. The determinism tests pin the acceptance
// contract: a same-seed run exports byte-identical metrics and (sim
// clock) traces for every encode thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "codec/encoder.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dive::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeDistributionBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("codec.frames");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  c.set(2);
  EXPECT_EQ(c.value(), 2);

  Gauge& g = reg.gauge("agent.last_eta", "ratio");
  g.set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);

  Distribution& d = reg.distribution("net.transmit_ms", "ms");
  for (double x : {3.0, 1.0, 2.0}) d.add(x);
  const Distribution::Summary s = d.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, HandlesAreStableAndNamesAreKindBound) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);  // same handle on re-request
  EXPECT_THROW(reg.gauge("x.count"), std::logic_error);
  EXPECT_THROW(reg.distribution("x.count"), std::logic_error);
}

TEST(Metrics, EmptyDistributionSummaryIsZeros) {
  MetricsRegistry reg;
  const Distribution::Summary s = reg.distribution("empty").summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Metrics, ExportsAreSortedAndWellFormed) {
  MetricsRegistry reg;
  reg.counter("b.count").add(7);
  reg.counter("a.count", "bytes").add(1);
  reg.gauge("c.gauge", "ratio").set(0.5);
  reg.distribution("d.dist", "ms").add(10.0);

  const std::string json = reg.to_json();
  // Counters appear sorted by name inside their section.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"distributions\""), std::string::npos);

  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.rfind("name,kind,unit,count,value,min,max,mean,p50,p90,p99",
                      0),
            0u);
  // One header plus four metric rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);

  EXPECT_NE(reg.to_table().to_string().find("a.count"), std::string::npos);
}

TEST(Metrics, ExportIsOrderIndependent) {
  MetricsRegistry fwd, rev;
  std::vector<double> xs;
  util::Rng rng(42);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(0.0, 100.0));
  for (double x : xs) fwd.distribution("d", "ms").add(x);
  std::reverse(xs.begin(), xs.end());
  for (double x : xs) rev.distribution("d", "ms").add(x);
  EXPECT_EQ(fwd.to_json(), rev.to_json());
  EXPECT_EQ(fwd.to_csv(), rev.to_csv());
}

// Exercised by the tsan preset: concurrent recording through shared
// handles must be race-free and lose no updates.
TEST(Metrics, ConcurrentRecordingFromWorkerPool) {
  MetricsRegistry reg;
  Counter& c = reg.counter("pool.count");
  Gauge& g = reg.gauge("pool.gauge");
  Distribution& d = reg.distribution("pool.dist");

  util::ThreadPool pool(4);
  constexpr int kIters = 2000;
  pool.parallel_for(0, kIters, [&](int i) {
    c.add();
    g.set(static_cast<double>(i));
    d.add(static_cast<double>(i % 50));
  });
  EXPECT_EQ(c.value(), kIters);
  EXPECT_EQ(d.count(), static_cast<std::size_t>(kIters));
  const Distribution::Summary s = d.summary();
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 49.0);
}

// Handle *creation* racing against recording (two threads asking the
// registry for overlapping names while others record).
TEST(Metrics, ConcurrentHandleCreation) {
  MetricsRegistry reg;
  util::ThreadPool pool(4);
  pool.parallel_for(0, 256, [&](int i) {
    reg.counter("shared.c" + std::to_string(i % 8)).add();
    reg.distribution("shared.d" + std::to_string(i % 8))
        .add(static_cast<double>(i));
  });
  EXPECT_EQ(reg.size(), 16u);
  std::int64_t total = 0;
  for (int k = 0; k < 8; ++k)
    total += reg.counter("shared.c" + std::to_string(k)).value();
  EXPECT_EQ(total, 256);
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, DisabledByDefaultRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.begin_span("x", kTrackAgent), -1);
  tracer.span_at("y", kTrackAgent, 0, 10);
  tracer.instant("z", kTrackAgent, 5);
  { ScopedSpan span(&tracer, "scoped"); }
  { ScopedSpan inert; inert.arg("k", 1); }  // default-constructed: no-op
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, ScopedSpansNestWithParents) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sim_now(1000);
  {
    ScopedSpan outer(&tracer, "agent.frame", kTrackAgent);
    {
      ScopedSpan inner(&tracer, "agent.encode", kTrackAgent);
      inner.arg("qp", 26);
    }
  }
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "agent.frame");
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_FALSE(events[0].open);
  EXPECT_EQ(events[1].name, "agent.encode");
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_EQ(events[1].sim_begin, 1000);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "qp");
  EXPECT_EQ(events[1].args[0].second, 26);
  EXPECT_GE(events[0].wall_end_ns, events[0].wall_begin_ns);
}

TEST(Tracer, SpanAtAndInstantCarrySimInterval) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.span_at("net.transmit", kTrackNet, 2000, 2500, {{"bytes", 128}});
  tracer.instant("serve.queued", kTrackSessionBase + 2, 3000, {{"depth", 2}});
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sim_begin, 2000);
  EXPECT_EQ(events[0].sim_end, 2500);
  EXPECT_EQ(events[0].wall_begin_ns, 0u);  // sim-only
  EXPECT_EQ(events[1].sim_begin, events[1].sim_end);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

/// Minimal structural validation: balanced braces/brackets outside
/// strings and the mandatory Chrome trace-event keys.
void expect_valid_chrome_json(const std::string& json) {
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  long brace = 0, bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_FALSE(in_string);
}

TEST(Tracer, ChromeExportIsStructurallyValidJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sim_now(500);
  {
    ScopedSpan span(&tracer, "agent.frame", kTrackAgent);
    span.arg("index", 7);
    tracer.span_at("net.transmit", kTrackNet, 500, 900, {{"bytes", 42}});
  }
  tracer.instant("serve.queued", kTrackSessionBase + 3, 950);

  for (TraceClock clock : {TraceClock::kSim, TraceClock::kWall}) {
    const std::string json = tracer.to_chrome_json(clock);
    expect_valid_chrome_json(json);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"agent.frame\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"agent\""), std::string::npos);
  }
  // Sim-only events are present on the sim clock, skipped on wall.
  EXPECT_NE(tracer.to_chrome_json(TraceClock::kSim).find("net.transmit"),
            std::string::npos);
  EXPECT_EQ(tracer.to_chrome_json(TraceClock::kWall).find("net.transmit"),
            std::string::npos);
  // Session tracks get readable names.
  EXPECT_NE(tracer.to_chrome_json(TraceClock::kSim).find("session-3"),
            std::string::npos);
}

// tsan preset: spans opened/closed concurrently from pool lanes.
TEST(Tracer, ConcurrentSpansFromWorkerPool) {
  Tracer tracer;
  tracer.set_enabled(true);
  util::ThreadPool pool(4);
  pool.parallel_for(0, 512, [&](int i) {
    ScopedSpan span(&tracer, "codec.lane", kTrackCodec);
    span.arg("i", i);
  });
  EXPECT_EQ(tracer.event_count(), 512u);
  for (const TraceEvent& ev : tracer.snapshot()) EXPECT_FALSE(ev.open);
}

// ----------------------------------------------- end-to-end determinism

video::Frame synthetic_frame(int w, int h, std::uint64_t seed, int shift) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const int xs = x - shift;
      double v = 60 + 0.3 * xs + 0.2 * y;
      if ((xs / 20 + y / 14) % 2 == 0) v += 55;
      v += rng.uniform(-3, 3);
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  return f;
}

/// Runs a short encode sequence with obs attached and returns the
/// deterministic export bundle (metrics JSON + sim-clock trace).
std::string obs_export_for_thread_count(int threads) {
  ObsContext ctx;
  ctx.tracer.set_enabled(true);
  codec::Encoder enc({.width = 128, .height = 64, .threads = threads});
  enc.set_obs(&ctx);
  for (int i = 0; i < 4; ++i) {
    ctx.tracer.set_sim_now(i * 33'000);
    enc.encode(synthetic_frame(128, 64, 700 + static_cast<std::uint64_t>(i),
                               i * 3),
               26);
  }
  ctx.tracer.set_sim_now(4 * 33'000);
  enc.encode_to_target(synthetic_frame(128, 64, 704, 12), 6000);
  return ctx.metrics.to_json() + "\n---\n" +
         ctx.tracer.to_chrome_json(TraceClock::kSim);
}

// The acceptance contract: same seed, different encode_threads, byte-
// identical metric and trace exports (wall data is excluded by kSim).
TEST(ObsDeterminism, ExportBytesIdenticalAcrossEncodeThreadCounts) {
  const std::string one = obs_export_for_thread_count(1);
  const std::string four = obs_export_for_thread_count(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("codec.frames"), std::string::npos);
#if !defined(DIVE_OBS_DISABLED)
  // Spans exist only when the macro path is compiled in; the metrics
  // and byte-identity checks above hold in both modes.
  EXPECT_NE(one.find("codec.encode"), std::string::npos);
#endif
}

// --------------------------------------------------- frame causality

TEST(FrameContext, DefaultIsInvalidAndFlowIdIsSequence) {
  FrameTraceContext ctx;
  EXPECT_FALSE(ctx.valid());
  ctx.sequence = 42;
  ctx.session_id = 3;
  ctx.frame_index = 7;
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.flow_id(), 42u);
}

TEST(Tracer, FlowEventsChainAcrossTracks) {
  Tracer tracer;
  tracer.set_enabled(true);
  // Three member spans of flow 5 on three tracks, plus one span of
  // flow 9 (single member: no arrows) and one unflowed span.
  tracer.span_at("agent.encode", kTrackSessionBase, 0, 16'000, {}, 5);
  tracer.span_at("net.transmit", kTrackNet, 16'000, 36'000, {}, 5);
  tracer.span_at("edge.inference", kTrackSessionBase, 50'000, 67'000, {}, 5);
  tracer.span_at("agent.mot_track", kTrackAgent, 70'000, 80'000, {}, 9);
  tracer.span_at("agent.frame", kTrackAgent, 0, 80'000);

  const std::string json = tracer.to_chrome_json(TraceClock::kSim);
  expect_valid_chrome_json(json);
  // One s, one t, one f for flow 5, bound to the enclosing slice on the
  // non-first members; nothing for the single-member flow 9.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\",\"id\":5"), std::string::npos);
  EXPECT_EQ(json.find("\"id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // s before t before f (emission follows the sorted output order).
  const std::size_t s_at = json.find("\"ph\":\"s\"");
  const std::size_t t_at = json.find("\"ph\":\"t\"");
  const std::size_t f_at = json.find("\"ph\":\"f\"");
  EXPECT_LT(s_at, t_at);
  EXPECT_LT(t_at, f_at);
}

TEST(Tracer, ScopedSpanFlowTagsEventAndArgs) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sim_now(100);
  FrameTraceContext ctx{/*session_id=*/2, /*frame_index=*/11,
                        /*sequence=*/77};
  {
    ScopedSpan span(&tracer, "agent.frame", kTrackAgent);
    span.flow(ctx);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].flow, 77u);
  // flow() also attaches session/frame args for readability.
  const std::string json = tracer.to_chrome_json(TraceClock::kSim);
  EXPECT_NE(json.find("\"session\":2"), std::string::npos);
  EXPECT_NE(json.find("\"frame\":11"), std::string::npos);

  // An invalid context is a no-op tag.
  tracer.clear();
  {
    ScopedSpan span(&tracer, "agent.frame", kTrackAgent);
    span.flow(FrameTraceContext{});
  }
  EXPECT_EQ(tracer.snapshot().at(0).flow, 0u);
}

// ------------------------------------------------------- frame ledger

TEST(FrameLedger, MintsMonotoneSequencesInCallOrder) {
  FrameLedger ledger;
  const FrameTraceContext a = ledger.begin_frame(0, 0, 0);
  const FrameTraceContext b = ledger.begin_frame(1, 0, 10);
  const FrameTraceContext c = ledger.begin_frame(0, 1, 20);
  EXPECT_EQ(a.sequence, 1u);
  EXPECT_EQ(b.sequence, 2u);
  EXPECT_EQ(c.sequence, 3u);
  EXPECT_TRUE(a.valid());
  ASSERT_EQ(ledger.size(), 3u);
  const auto records = ledger.records();
  EXPECT_EQ(records[1].ctx.session_id, 1u);
  EXPECT_EQ(records[2].capture, 20);
}

TEST(FrameLedger, StagesAttributeTheFullEndToEnd) {
  FrameLedger ledger;
  const FrameTraceContext ctx =
      ledger.begin_frame(0, 0, 0, /*deadline=*/400'000);
  ledger.stage(ctx, FrameStage::kEncode, 0, 16'000);
  ledger.stage(ctx, FrameStage::kUplinkQueue, 16'000, 16'000);
  ledger.stage(ctx, FrameStage::kTransmit, 16'000, 36'000);
  ledger.stage(ctx, FrameStage::kPropagation, 36'000, 46'000);
  ledger.stage(ctx, FrameStage::kAdmissionWait, 46'000, 48'000);
  ledger.stage(ctx, FrameStage::kBatchWait, 48'000, 50'000);
  ledger.stage(ctx, FrameStage::kInference, 50'000, 67'000);
  ledger.stage(ctx, FrameStage::kResult, 67'000, 75'000);
  ledger.outcome(ctx, FrameOutcome::kCompleted, 75'000);

  const FrameRecord rec = ledger.records().at(0);
  EXPECT_EQ(rec.outcome, FrameOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(rec.e2e_ms(), 75.0);
  EXPECT_DOUBLE_EQ(rec.attributed_ms(), 75.0);  // gapless tiling
  EXPECT_EQ(rec.dominant_stage(), FrameStage::kTransmit);  // 20 ms wins
  EXPECT_DOUBLE_EQ(rec.stage_ms(FrameStage::kTransmit), 20.0);
  EXPECT_TRUE(ledger.autopsies().empty());
}

TEST(FrameLedger, CompletionPastDeadlineBecomesLate) {
  FrameLedger ledger;
  const FrameTraceContext ctx =
      ledger.begin_frame(0, 0, 0, /*deadline=*/50'000);
  ledger.stage(ctx, FrameStage::kEncode, 0, 16'000);
  ledger.stage(ctx, FrameStage::kAdmissionWait, 16'000, 60'000);
  ledger.outcome(ctx, FrameOutcome::kCompleted, 70'000);
  const FrameRecord rec = ledger.records().at(0);
  EXPECT_EQ(rec.outcome, FrameOutcome::kCompletedLate);
  const auto autopsies = ledger.autopsies();
  ASSERT_EQ(autopsies.size(), 1u);
  EXPECT_EQ(autopsies[0].dominant, FrameStage::kAdmissionWait);
  EXPECT_DOUBLE_EQ(autopsies[0].dominant_ms, 44.0);
}

TEST(FrameLedger, DropsCarryTheirDominantStage) {
  FrameLedger ledger;
  const FrameTraceContext ctx = ledger.begin_frame(2, 5, 0);
  ledger.stage(ctx, FrameStage::kEncode, 0, 16'000);
  ledger.stage(ctx, FrameStage::kTransmit, 16'000, 300'000);
  ledger.outcome(ctx, FrameOutcome::kDroppedUplink, 300'000);
  const auto autopsies = ledger.autopsies();
  ASSERT_EQ(autopsies.size(), 1u);
  EXPECT_EQ(autopsies[0].outcome, FrameOutcome::kDroppedUplink);
  EXPECT_EQ(autopsies[0].dominant, FrameStage::kTransmit);
  EXPECT_TRUE(is_drop(FrameOutcome::kDroppedUplink));
  EXPECT_FALSE(is_drop(FrameOutcome::kCompletedLate));
}

TEST(FrameLedger, InvalidContextAndUnknownSequenceAreIgnored) {
  FrameLedger ledger;
  ledger.stage(FrameTraceContext{}, FrameStage::kEncode, 0, 1000);
  FrameTraceContext bogus;
  bogus.sequence = 999;
  ledger.stage(bogus, FrameStage::kEncode, 0, 1000);
  ledger.outcome(bogus, FrameOutcome::kCompleted, 1000);
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(FrameLedger, JsonExportIsDeterministicAndWellFormed) {
  auto build = [] {
    FrameLedger ledger;
    const FrameTraceContext a = ledger.begin_frame(0, 0, 0, 400'000);
    ledger.stage(a, FrameStage::kEncode, 0, 16'000);
    ledger.outcome(a, FrameOutcome::kCompleted, 40'000);
    const FrameTraceContext b = ledger.begin_frame(1, 0, 5'000);
    ledger.stage(b, FrameStage::kEncode, 5'000, 21'000);
    ledger.outcome(b, FrameOutcome::kDroppedQueue, 60'000);
    return ledger.to_json();
  };
  const std::string json = build();
  EXPECT_EQ(json, build());
  EXPECT_NE(json.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"dropped_queue\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"encode\""), std::string::npos);
}

TEST(FrameLedger, TablesAndPublishSummarize) {
  FrameLedger ledger;
  for (int i = 0; i < 4; ++i) {
    const FrameTraceContext ctx = ledger.begin_frame(
        static_cast<std::uint32_t>(i % 2), static_cast<std::uint64_t>(i),
        i * 10'000, i * 10'000 + 100'000);
    ledger.stage(ctx, FrameStage::kEncode, i * 10'000, i * 10'000 + 16'000);
    if (i == 3) {
      ledger.outcome(ctx, FrameOutcome::kDroppedDeadline,
                     i * 10'000 + 20'000);
    } else {
      ledger.outcome(ctx, FrameOutcome::kCompleted, i * 10'000 + 40'000);
    }
  }
  const std::string stages = ledger.stage_table().to_string();
  EXPECT_NE(stages.find("encode"), std::string::npos);
  const std::string sessions = ledger.session_table().to_string();
  EXPECT_NE(sessions.find("0"), std::string::npos);
  const std::string autopsy = ledger.autopsy_table().to_string();
  EXPECT_NE(autopsy.find("dropped_deadline"), std::string::npos);

  MetricsRegistry reg;
  ledger.publish(reg);
  EXPECT_EQ(reg.counter("obs.ledger.frames").value(), 4);
  EXPECT_EQ(reg.counter("obs.ledger.completed").value(), 3);
  EXPECT_EQ(reg.counter("obs.ledger.dropped").value(), 1);
}

TEST(FrameLedger, TraceEventsFollowTheStageTable) {
  FrameLedger ledger;
  const FrameTraceContext done = ledger.begin_frame(2, 7, 0, 400'000);
  ledger.stage(done, FrameStage::kEncode, 0, 16'000);
  ledger.stage(done, FrameStage::kTransmit, 16'000, 36'000);
  ledger.stage(done, FrameStage::kInference, 46'000, 67'000);
  ledger.outcome(done, FrameOutcome::kCompleted, 75'000);
  const FrameTraceContext lost = ledger.begin_frame(1, 3, 10'000);
  ledger.stage(lost, FrameStage::kEncode, 10'000, 26'000);
  ledger.outcome(lost, FrameOutcome::kDroppedQueue, 50'000);

  const std::vector<TraceEvent> events = ledger.trace_events();
  ASSERT_EQ(events.size(), 5u);
  const auto expect_event = [](const TraceEvent& ev, const char* name,
                               std::uint32_t track, util::SimTime begin,
                               util::SimTime end,
                               const FrameTraceContext& ctx) {
    EXPECT_EQ(ev.name, name);
    EXPECT_EQ(ev.track, track);
    EXPECT_EQ(ev.sim_begin, begin);
    EXPECT_EQ(ev.sim_end, end);
    EXPECT_EQ(ev.flow, ctx.flow_id());
    EXPECT_EQ(ev.wall_begin_ns, 0u);  // sim-only
    ASSERT_EQ(ev.args.size(), 2u);
    EXPECT_EQ(ev.args[0], (std::pair<std::string, long long>("session",
                                                             ctx.session_id)));
    EXPECT_EQ(ev.args[1],
              (std::pair<std::string, long long>(
                  "frame", static_cast<long long>(ctx.frame_index))));
  };
  // Mint order, stages in causal order, the drop instant last.
  expect_event(events[0], "agent.encode", kTrackSessionBase + 2, 0, 16'000,
               done);
  expect_event(events[1], "net.transmit", kTrackNet, 16'000, 36'000, done);
  expect_event(events[2], "edge.inference", kTrackSessionBase + 2, 46'000,
               67'000, done);
  expect_event(events[3], "agent.encode", kTrackSessionBase + 1, 10'000,
               26'000, lost);
  expect_event(events[4], "edge.dropped_queue", kTrackSessionBase + 1,
               50'000, 50'000, lost);

  // The kSim export lays them out beside the tracer's own events, and one
  // flow chain runs through both sources; the kWall export skips them.
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.span_at("agent.mot_track", kTrackAgent, 26'000, 40'000, {},
                 lost.flow_id());
  const std::string sim = tracer.to_chrome_json(TraceClock::kSim, &ledger);
  expect_valid_chrome_json(sim);
  EXPECT_NE(sim.find("\"name\":\"edge.dropped_queue\""), std::string::npos);
  EXPECT_NE(sim.find("session-2"), std::string::npos);
  const std::string lost_id =
      "\"cat\":\"flow\",\"id\":" + std::to_string(lost.flow_id());
  std::size_t members = 0;
  for (std::size_t at = sim.find(lost_id); at != std::string::npos;
       at = sim.find(lost_id, at + 1))
    ++members;
  EXPECT_EQ(members, 3u);  // encode, mot_track, drop instant
  // Without a ledger the export holds the tracer's events only.
  EXPECT_EQ(tracer.to_chrome_json(TraceClock::kSim).find("agent.encode"),
            std::string::npos);
  const std::string wall = tracer.to_chrome_json(TraceClock::kWall, &ledger);
  EXPECT_EQ(wall.find("agent.encode"), std::string::npos);
  EXPECT_EQ(wall.find("agent.mot_track"), std::string::npos);
}

// -------------------------------------------------- metric snapshotter

TEST(MetricsSnapshotter, EmitsOneRowPerBoundaryCrossed) {
  MetricsRegistry reg;
  Counter& frames = reg.counter("agent.frames");
  MetricsSnapshotter snap(&reg, 10'000);
  EXPECT_EQ(snap.next(), 0);

  frames.add(3);
  snap.sample(5'000);  // crosses the t=0 boundary only
  ASSERT_EQ(snap.rows().size(), 1u);
  EXPECT_EQ(snap.rows()[0].at, 0);

  frames.add(2);
  snap.sample(35'000);  // crosses 10k, 20k, 30k
  ASSERT_EQ(snap.rows().size(), 4u);
  EXPECT_EQ(snap.rows()[3].at, 30'000);
  // Rows carry the value at sample time (5 for all three crossings).
  EXPECT_DOUBLE_EQ(snap.rows()[3].values.at(0).second, 5.0);
  EXPECT_EQ(snap.next(), 40'000);

  snap.sample(35'000);  // no boundary, no row
  EXPECT_EQ(snap.rows().size(), 4u);
  snap.force_sample(36'000);  // unconditional drain row
  EXPECT_EQ(snap.rows().size(), 5u);
  EXPECT_EQ(snap.rows()[4].at, 36'000);
}

TEST(MetricsSnapshotter, CsvIsColumnUnionAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("agent.frames").add(1);
  MetricsSnapshotter snap(&reg, 1'000);
  snap.force_sample(0);
  reg.gauge("serve.queue_depth_mean").set(2.5);  // appears later
  reg.distribution("serve.e2e_ms", "ms").add(80.0);
  snap.force_sample(1'000);

  const std::string csv = snap.to_csv();
  EXPECT_EQ(csv, snap.to_csv());
  // Header = time_ms + sorted union; first row misses the late columns.
  EXPECT_NE(csv.find("time_ms"), std::string::npos);
  EXPECT_NE(csv.find("agent.frames"), std::string::npos);
  EXPECT_NE(csv.find("serve.e2e_ms.p99"), std::string::npos);
  EXPECT_NE(csv.find("serve.queue_depth_mean"), std::string::npos);

  const std::string table =
      snap.to_table({"agent.frames", "serve.queue_depth_mean"}).to_string();
  EXPECT_NE(table.find("agent.frames"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);  // missing-cell marker
}

// ------------------------------------------ SampleSet query contract

// tsan preset: after an explicit sort_samples(), const quantile queries
// are safe from multiple threads (see the contract in util/stats.h).
TEST(SampleSetContract, SortedConstQueriesAreThreadSafe) {
  util::SampleSet samples;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) samples.add(rng.uniform(0.0, 1.0));
  samples.sort_samples();

  util::ThreadPool pool(4);
  std::vector<double> results(64);
  pool.parallel_for(0, 64, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        samples.quantile(static_cast<double>(i) / 64.0) +
        samples.cdf_at(0.5);
  });
  for (std::size_t i = 1; i < 32; ++i)
    EXPECT_GE(results[i] , results[0] - 1.0);  // sanity: all finite
}

}  // namespace
}  // namespace dive::obs
