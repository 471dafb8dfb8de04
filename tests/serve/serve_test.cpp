// Serving-layer invariants: deterministic batched scheduling, bounded
// admission, per-session isolation, fairness, and graceful overload
// degradation of the multi-agent scenario.
#include <gtest/gtest.h>

#include <memory>

#include "codec/encoder.h"
#include "harness/serve_scenario.h"
#include "net/bandwidth.h"
#include "serve/node.h"
#include "serve/scheduler.h"

namespace dive::serve {
namespace {

using util::from_millis;
using util::from_seconds;

// ---------------------------------------------------------------- Scheduler

constexpr util::SimTime kDecode = from_millis(3.0);
constexpr util::SimTime kInfer = from_millis(18.0);

Scheduler make_scheduler(int workers, std::size_t max_batch,
                         util::SimTime window = from_millis(4.0)) {
  SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = max_batch;
  cfg.batch_window = window;
  return Scheduler(cfg, kDecode, kInfer);
}

ScheduledJob job(std::uint32_t session, std::uint64_t frame,
                 util::SimTime arrival) {
  return {session, frame, arrival - from_millis(20.0), arrival};
}

TEST(Scheduler, SingleJobStartsOnArrival) {
  Scheduler s = make_scheduler(1, 1);
  s.submit(job(0, 0, from_millis(10)));
  const auto batches = s.run_until(from_millis(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].start, from_millis(10));
  EXPECT_EQ(batches[0].done, from_millis(10) + kDecode + kInfer);
  EXPECT_EQ(batches[0].jobs.size(), 1u);
}

TEST(Scheduler, FullBatchAmortizesInference) {
  Scheduler s = make_scheduler(1, 4);
  for (int f = 0; f < 4; ++f) s.submit(job(0, f, 0));
  const auto batches = s.run_until(0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 4u);
  EXPECT_EQ(batches[0].start, 0);
  // 4 * 3 ms decode + 18 ms * (1 + 3 * 0.35) inference = 48.9 ms,
  // well under the 4 * 21 ms = 84 ms a serial pipeline would pay.
  EXPECT_EQ(batches[0].done, from_millis(48.9));
  EXPECT_LT(batches[0].done, 4 * (kDecode + kInfer));
}

TEST(Scheduler, PartialBatchWaitsOutTheWindow) {
  Scheduler s = make_scheduler(1, 4, from_millis(5.0));
  s.submit(job(0, 0, 0));
  s.submit(job(0, 1, from_millis(2)));
  // The window (0 + 5 ms) has not verifiably expired at t = 4 ms.
  EXPECT_TRUE(s.run_until(from_millis(4)).empty());
  const auto batches = s.run_until(from_millis(5));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  EXPECT_EQ(batches[0].start, from_millis(5));  // dispatched at window close
}

TEST(Scheduler, JobArrivingExactlyAtWindowCloseJoinsBatch) {
  // The window is inclusive of its close instant: a job with
  // arrival == close rides the batch instead of opening the next one.
  Scheduler s = make_scheduler(1, 4, from_millis(5.0));
  s.submit(job(0, 0, 0));
  s.submit(job(0, 1, from_millis(5)));  // exactly at close = 0 + 5 ms
  const auto batches = s.run_until(from_millis(5));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  EXPECT_EQ(batches[0].start, from_millis(5));
}

TEST(Scheduler, MaxBatchOneIgnoresWindow) {
  // With batching disabled the window must not apply: each job dispatches
  // the moment worker and job meet, and consecutive jobs pack back to
  // back with no window gap.
  Scheduler s = make_scheduler(1, 1, from_millis(50.0));
  s.submit(job(0, 0, from_millis(10)));
  s.submit(job(0, 1, from_millis(10)));
  const auto batches = s.run_until(from_millis(10));
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].start, from_millis(10));  // no 50 ms window wait
  EXPECT_EQ(batches[0].done, from_millis(10) + kDecode + kInfer);
  EXPECT_EQ(batches[1].start, batches[0].done);  // and none between jobs
}

TEST(Scheduler, FullBatchFinalizesWhenLastArrivalEqualsNow) {
  // A full batch is final once no submission strictly after `now` could
  // displace a member — i.e. exactly when now reaches the last arrival,
  // not one event later.
  Scheduler s = make_scheduler(1, 2, from_millis(4.0));
  s.submit(job(0, 0, 0));
  s.submit(job(0, 1, from_millis(3)));
  EXPECT_TRUE(s.run_until(from_millis(2)).empty());  // not final yet
  const auto batches = s.run_until(from_millis(3));  // now == last_arrival
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  EXPECT_EQ(batches[0].start, from_millis(3));  // max(open, last_arrival)
}

TEST(Scheduler, MaxBatchSplitsBacklog) {
  Scheduler s = make_scheduler(1, 4);
  for (int f = 0; f < 6; ++f) s.submit(job(0, f, 0));
  const auto batches = s.drain();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].jobs.size(), 4u);
  EXPECT_EQ(batches[1].jobs.size(), 2u);
  // The second batch cannot start before the worker frees.
  EXPECT_GE(batches[1].start, batches[0].done);
}

TEST(Scheduler, WorkersRunInParallel) {
  Scheduler s = make_scheduler(2, 1);
  s.submit(job(0, 0, 0));
  s.submit(job(1, 0, 0));
  const auto batches = s.run_until(0);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].start, 0);
  EXPECT_EQ(batches[1].start, 0);
  EXPECT_NE(batches[0].worker, batches[1].worker);
}

TEST(Scheduler, SessionFramesStayInOrder) {
  Scheduler s = make_scheduler(1, 1);
  for (int f = 0; f < 4; ++f) s.submit(job(0, f, from_millis(f)));
  const auto batches = s.drain();
  ASSERT_EQ(batches.size(), 4u);
  for (std::size_t i = 0; i < batches.size(); ++i)
    EXPECT_EQ(batches[i].jobs[0].frame_index, i);
}

TEST(Scheduler, ScheduleIndependentOfRunUntilSlicing) {
  // Incremental run_until calls must produce the same schedule as one
  // drain over the same submissions.
  Scheduler incremental = make_scheduler(1, 2, from_millis(5.0));
  incremental.submit(job(0, 0, from_millis(1)));
  EXPECT_TRUE(incremental.run_until(from_millis(1)).empty());  // deferred
  incremental.submit(job(1, 0, from_millis(3)));
  const auto sliced = incremental.drain();

  Scheduler oneshot = make_scheduler(1, 2, from_millis(5.0));
  oneshot.submit(job(0, 0, from_millis(1)));
  oneshot.submit(job(1, 0, from_millis(3)));
  const auto whole = oneshot.drain();

  ASSERT_EQ(sliced.size(), whole.size());
  ASSERT_EQ(sliced.size(), 1u);
  EXPECT_EQ(sliced[0].start, whole[0].start);
  EXPECT_EQ(sliced[0].done, whole[0].done);
  EXPECT_EQ(sliced[0].jobs.size(), whole[0].jobs.size());
  EXPECT_EQ(sliced[0].start, from_millis(3));  // batch filled on arrival
}

// --------------------------------------------------------- Admission / node

ServeNodeConfig slow_node_config() {
  ServeNodeConfig cfg;
  cfg.scheduler.workers = 1;
  cfg.scheduler.max_batch = 1;
  cfg.admission.max_queue = 2;
  cfg.server.inference_latency = from_seconds(10.0);  // pin the worker
  cfg.seed = 5;
  return cfg;
}

std::shared_ptr<net::Uplink> fast_uplink() {
  return std::make_shared<net::Uplink>(
      std::make_shared<net::ConstantBandwidth>(1e9), net::UplinkConfig{});
}

FrameJob encoded_job(codec::Encoder& enc, std::uint32_t session,
                     std::uint64_t frame, util::SimTime arrival) {
  FrameJob j;
  j.session_id = session;
  j.frame_index = frame;
  j.capture_time = arrival - from_millis(20.0);
  j.arrival = arrival;
  j.data = enc.encode(video::Frame(64, 32), 24).data;
  return j;
}

TEST(Admission, QueueBoundIsRespected) {
  ServeNodeConfig cfg = slow_node_config();
  // A deadline far past every completion (<= 30 s) isolates the queue
  // bound from the deadline drop.
  cfg.session.deadline = from_seconds(1000);
  ServeNode node(cfg);
  node.open_session(fast_uplink());
  codec::Encoder enc({.width = 64, .height = 32});

  // Frame 0 is dispatched and occupies the worker for 10 s (its result
  // materializes with a far-future completion timestamp).
  EXPECT_EQ(node.submit(encoded_job(enc, 0, 0, from_millis(1))),
            AdmissionVerdict::kAdmit);
  const auto first = node.run_until(from_millis(2));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_GT(first[0].infer_done, from_seconds(9));
  EXPECT_EQ(node.session(0).queue_depth(), 0u);

  // Two more fill the bounded queue; the third bounces.
  EXPECT_EQ(node.submit(encoded_job(enc, 0, 1, from_millis(3))),
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(node.submit(encoded_job(enc, 0, 2, from_millis(4))),
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(node.session(0).queue_depth(), 2u);
  EXPECT_EQ(node.submit(encoded_job(enc, 0, 3, from_millis(5))),
            AdmissionVerdict::kQueueFull);
  EXPECT_EQ(node.metrics().session(0).dropped_queue, 1);

  // Everything admitted still completes, in frame order.
  const auto results = node.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].frame_index, 1u);
  EXPECT_EQ(results[1].frame_index, 2u);
  EXPECT_EQ(node.metrics().session(0).completed, 3);
  EXPECT_EQ(node.session(0).queue_depth(), 0u);
}

TEST(Admission, DeadlineAwareDropUnderBacklog) {
  ServeNodeConfig cfg = slow_node_config();
  // Between the idle-worker completion (~10 s) and the backlogged one
  // (~20 s): frame 0 is servable in time, frame 1 provably is not.
  cfg.session.deadline = from_seconds(15);
  ServeNode node(cfg);
  node.open_session(fast_uplink());
  codec::Encoder enc({.width = 64, .height = 32});

  EXPECT_EQ(node.submit(encoded_job(enc, 0, 0, from_millis(1))),
            AdmissionVerdict::kAdmit);
  node.run_until(from_millis(2));  // worker busy until ~10 s
  // Predicted completion is past capture + 15 s: rejected up front.
  EXPECT_EQ(node.submit(encoded_job(enc, 0, 1, from_millis(3))),
            AdmissionVerdict::kDeadline);
  EXPECT_EQ(node.metrics().session(0).dropped_deadline, 1);
  node.drain();
}

TEST(Session, JitterStreamsAreIndependentAndOrderFree) {
  ServeNodeConfig cfg;
  cfg.seed = 42;
  ServeNode node(cfg);
  node.open_session(fast_uplink());
  node.open_session(fast_uplink());

  // Distinct per-session streams...
  EXPECT_NE(node.session(0).server().inference_jitter(0),
            node.session(1).server().inference_jitter(0));
  // ...reproducible from the documented derivation, independent of
  // anything other sessions do (edge/server.h determinism contract).
  const edge::EdgeServer solo(cfg.server, util::Rng(42).fork(1).seed());
  for (std::uint64_t k = 0; k < 8; ++k)
    EXPECT_EQ(node.session(1).server().inference_jitter(k),
              solo.inference_jitter(k));
}

TEST(Session, DecodersAreIsolatedAcrossSessions) {
  ServeNodeConfig cfg;
  cfg.scheduler.workers = 1;
  cfg.scheduler.max_batch = 2;  // both sessions share one batch
  cfg.seed = 7;
  ServeNode node(cfg);
  node.open_session(fast_uplink());
  node.open_session(fast_uplink());

  codec::Encoder enc_a({.width = 64, .height = 32});
  codec::Encoder enc_b({.width = 64, .height = 32});
  node.submit(encoded_job(enc_a, 0, 0, from_millis(1)));
  node.submit(encoded_job(enc_b, 1, 0, from_millis(1)));
  // Inter frames only decode against the right per-session reference.
  node.submit(encoded_job(enc_a, 0, 1, from_millis(90)));
  node.submit(encoded_job(enc_b, 1, 1, from_millis(90)));
  EXPECT_NO_THROW(node.drain());
  EXPECT_TRUE(node.session(0).server().has_reference());
  EXPECT_TRUE(node.session(1).server().has_reference());
  EXPECT_EQ(node.metrics().aggregate().completed, 4);
  EXPECT_GT(node.metrics().aggregate().batch_size.max(), 1.0);
}

// ----------------------------------------------------------------- Scenario

harness::ServeScenarioOptions small_scenario(int sessions) {
  harness::ServeScenarioOptions opt = harness::default_serve_options();
  opt.sessions = sessions;
  opt.frames_per_session = 8;
  opt.width = 128;
  opt.height = 80;
  opt.clip_pool = 1;
  return opt;
}

TEST(ServeScenario, SameSeedReproducesIdenticalMetrics) {
  const auto opt = small_scenario(2);
  const auto a = harness::run_serve_scenario(opt);
  const auto b = harness::run_serve_scenario(opt);
  EXPECT_DOUBLE_EQ(a.aggregate_map, b.aggregate_map);
  EXPECT_DOUBLE_EQ(a.mean_e2e_ms, b.mean_e2e_ms);
  EXPECT_DOUBLE_EQ(a.p95_e2e_ms, b.p95_e2e_ms);
  EXPECT_DOUBLE_EQ(a.mean_wait_ms, b.mean_wait_ms);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
  EXPECT_EQ(a.dropped_uplink, b.dropped_uplink);
}

TEST(ServeScenario, IdenticalSessionsAreServedFairly) {
  // Two agents, same clip, ample capacity: identical inputs must yield
  // identical per-session outcomes (FIFO + phase offsets cannot starve
  // either session).
  const auto r = harness::run_serve_scenario(small_scenario(2));
  ASSERT_EQ(r.sessions.size(), 2u);
  EXPECT_EQ(r.sessions[0].offloaded, r.sessions[1].offloaded);
  EXPECT_DOUBLE_EQ(r.sessions[0].map, r.sessions[1].map);
  EXPECT_NEAR(r.sessions[0].mean_e2e_ms, r.sessions[1].mean_e2e_ms, 5.0);
  EXPECT_EQ(r.dropped_queue + r.dropped_deadline + r.dropped_uplink, 0);
  EXPECT_DOUBLE_EQ(r.offload_fraction, 1.0);
}

TEST(ServeScenario, OverloadDegradesGracefully) {
  // One slow worker against 8 agents: the node must shed load through
  // admission control (MOT fallbacks), keep queues bounded, and finish.
  harness::ServeScenarioOptions opt = small_scenario(8);
  opt.node.scheduler.workers = 1;
  opt.node.scheduler.max_batch = 1;
  opt.node.session.deadline = from_millis(150.0);
  const auto r = harness::run_serve_scenario(opt);

  EXPECT_EQ(r.frames, 64);
  EXPECT_GT(r.dropped_queue + r.dropped_deadline, 0);
  EXPECT_GT(r.mot, 0);
  EXPECT_EQ(r.completed + r.mot, r.frames);
  EXPECT_LT(r.offload_fraction, 1.0);
  // Bounded queues: depth at admission never exceeded the configured cap.
  EXPECT_LE(r.metrics.aggregate().queue_depth.max(),
            static_cast<double>(opt.node.admission.max_queue));
  // Overloaded sessions still produce usable detections via MOT.
  EXPECT_GT(r.aggregate_map, 0.0);
}

TEST(ServeScenario, BatchingRaisesSustainableLoad) {
  // Same demand, same worker pool: batching serves strictly more frames
  // at the edge than the unbatched node once the pool saturates.
  harness::ServeScenarioOptions batched = small_scenario(8);
  batched.node.scheduler.workers = 1;
  harness::ServeScenarioOptions serial = batched;
  serial.node.scheduler.max_batch = 1;

  const auto with_batching = harness::run_serve_scenario(batched);
  const auto without = harness::run_serve_scenario(serial);
  EXPECT_GT(with_batching.completed, without.completed);
  EXPECT_GT(with_batching.mean_batch, 1.0);
}

// ------------------------------------------------------------ ServeMetrics

TEST(ServeMetrics, ZeroCompletedSessionsRenderSafely) {
  ServeMetrics metrics;
  metrics.session(0);  // opened but never served
  metrics.session(1).submitted = 3;
  metrics.session(1).dropped_queue = 3;

  // Empty SampleSets must not trip the quantile paths in either table.
  const std::string per_session = metrics.session_table().to_string();
  const std::string summary = metrics.summary_table().to_string();
  EXPECT_NE(per_session.find("0"), std::string::npos);
  EXPECT_NE(summary.find("all"), std::string::npos);

  const SessionCounters agg = metrics.aggregate();
  EXPECT_EQ(agg.submitted, 3);
  EXPECT_EQ(agg.completed, 0);
  EXPECT_TRUE(agg.e2e_ms.empty());
}

TEST(ServeMetrics, MetricsForUnknownSessionThrow) {
  const ServeMetrics metrics;
  EXPECT_THROW((void)metrics.session(0), std::out_of_range);
}

SessionCounters sample_counters(long completed, double e2e_base) {
  SessionCounters c;
  c.submitted = completed + 1;
  c.admitted = completed;
  c.completed = completed;
  c.dropped_queue = 1;
  for (long i = 0; i < completed; ++i) {
    c.queue_depth.add(static_cast<double>(i % 3));
    c.batch_size.add(static_cast<double>(1 + i % 4));
    c.wait_ms.add(5.0 + static_cast<double>(i));
    c.e2e_ms.add(e2e_base + static_cast<double>(i));
  }
  return c;
}

TEST(ServeMetrics, MergeIsAssociative) {
  const SessionCounters a = sample_counters(3, 100.0);
  const SessionCounters b = sample_counters(5, 140.0);
  const SessionCounters c = sample_counters(2, 80.0);

  SessionCounters left = a;        // (a + b) + c
  left.merge(b);
  left.merge(c);
  SessionCounters bc = b;          // a + (b + c)
  bc.merge(c);
  SessionCounters right = a;
  right.merge(bc);

  EXPECT_EQ(left.submitted, right.submitted);
  EXPECT_EQ(left.completed, right.completed);
  EXPECT_EQ(left.dropped(), right.dropped());
  EXPECT_EQ(left.e2e_ms.count(), right.e2e_ms.count());
  EXPECT_DOUBLE_EQ(left.e2e_ms.quantile(0.5), right.e2e_ms.quantile(0.5));
  EXPECT_DOUBLE_EQ(left.wait_ms.quantile(0.95), right.wait_ms.quantile(0.95));
  EXPECT_NEAR(left.batch_size.mean(), right.batch_size.mean(), 1e-12);
}

TEST(ServeMetrics, PublishIsIdempotentAndMatchesAggregate) {
  ServeMetrics metrics;
  metrics.session(0) = sample_counters(4, 90.0);
  metrics.session(1) = sample_counters(6, 120.0);

  obs::MetricsRegistry registry;
  metrics.publish(registry);
  const std::string first = registry.to_json();
  metrics.publish(registry);  // must not double-count
  EXPECT_EQ(registry.to_json(), first);

  const SessionCounters agg = metrics.aggregate();
  EXPECT_EQ(registry.counter("serve.submitted").value(), agg.submitted);
  EXPECT_EQ(registry.counter("serve.completed").value(), agg.completed);
  EXPECT_EQ(registry.counter("serve.sessions").value(), 2);
  EXPECT_EQ(registry.distribution("serve.e2e_ms").count(),
            agg.e2e_ms.count());
  EXPECT_EQ(registry.distribution("serve.per_session.completed").count(), 2u);
}

TEST(ServeMetrics, PublishHandlesZeroSessions) {
  const ServeMetrics metrics;
  obs::MetricsRegistry registry;
  metrics.publish(registry);  // no sessions at all: all zeros, no throw
  EXPECT_EQ(registry.counter("serve.sessions").value(), 0);
  EXPECT_EQ(registry.distribution("serve.e2e_ms").count(), 0u);
}

TEST(ServeScenario, ObsContextCollectsSpansAndMetrics) {
  obs::ObsContext ctx;
  ctx.tracer.set_enabled(true);
  harness::ServeScenarioOptions opt = small_scenario(2);
  opt.obs = &ctx;
  const auto r = harness::run_serve_scenario(opt);

  // drain() published the node's metrics into the shared registry...
  EXPECT_EQ(ctx.metrics.counter("serve.completed").value(), r.completed);
  // ...and every completed inference derives a span on its session track.
  std::size_t infer_spans = 0;
  for (const auto& ev : ctx.ledger.trace_events()) {
    if (ev.name == "edge.inference") {
      ++infer_spans;
      EXPECT_GE(ev.track, obs::kTrackSessionBase);
      EXPECT_GE(ev.sim_end, ev.sim_begin);
    }
  }
  EXPECT_EQ(infer_spans, static_cast<std::size_t>(r.completed));
}

}  // namespace
}  // namespace dive::serve
