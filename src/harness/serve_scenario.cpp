#include "harness/serve_scenario.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "codec/encoder.h"
#include "core/agent.h"
#include "core/foreground_extractor.h"
#include "core/offline_tracker.h"
#include "core/preprocess.h"
#include "data/dataset.h"
#include "edge/detector.h"
#include "edge/evaluator.h"
#include "harness/experiment.h"
#include "net/bandwidth.h"
#include "util/rng.h"

namespace dive::harness {

ServeScenarioOptions default_serve_options() {
  ServeScenarioOptions opt;
  opt.node.scheduler.workers = 2;
  opt.node.scheduler.max_batch = 4;
  opt.node.scheduler.batch_window = util::from_millis(4.0);
  opt.node.admission.max_queue = 4;
  opt.node.session.deadline = util::from_millis(400.0);
  // Gate tuned for the scenario's reduced-resolution clips: 32 px tiles
  // and a one-tile halo would each cover a third of a 192x112 frame, and
  // the foreground extractor's 8 px hull padding already provides the
  // border margin a halo exists for. Parallax deviation from the median
  // MV is coarser at this scale, hence the higher motion threshold.
  opt.node.session.roi_gate.tile_px = 16;
  opt.node.session.roi_gate.halo_tiles = 0;
  opt.node.session.roi_gate.motion_deviation = 12;
  // The horizon band (on by default) catches appearing far-field
  // objects, so the rotating stripe only backstops mid-frame surprises
  // and can be sparse.
  opt.node.session.roi_gate.scan_stripes = 8;
  return opt;
}

namespace {

/// Agent-side state of one session (the edge-side state lives in
/// serve::Session).
struct AgentState {
  const data::Clip* clip = nullptr;
  int clip_index = 0;
  std::unique_ptr<codec::Encoder> encoder;
  /// RoI metadata lane only: hull extraction mirroring the full DiVE
  /// agent (preprocess for ego-motion correction, then foreground hulls).
  std::unique_ptr<core::Preprocessor> preprocessor;
  core::ForegroundExtractor extractor;
  /// Most recent detections the agent physically holds, advanced by MOT
  /// on fallback frames.
  edge::DetectionList belief;
  std::uint64_t belief_frame = 0;
  bool has_belief = false;
  bool need_resync = false;
  /// Per-frame detections credited to the agent, for AP scoring.
  std::vector<edge::DetectionList> outcome;
  std::vector<bool> offloaded;
};

}  // namespace

ServeScenarioResult run_serve_scenario(const ServeScenarioOptions& options) {
  // Shared clip pool: session i plays clip (i % clip_pool); decoder and
  // jitter state stay strictly per-session.
  data::DatasetSpec spec;
  spec.width = options.width;
  spec.height = options.height;
  spec.focal_px = 403.0 * options.width / 512.0;
  spec.clip_count = std::max(1, options.clip_pool);
  spec.frames_per_clip = options.frames_per_session;
  spec.stop_and_go_fraction = options.stop_and_go_fraction;
  spec.turning_fraction = options.turning_fraction;
  spec.seed = options.seed;
  std::vector<data::Clip> pool;
  pool.reserve(static_cast<std::size_t>(spec.clip_count));
  for (int i = 0; i < spec.clip_count; ++i)
    pool.push_back(data::generate_clip(spec, i));

  serve::ServeNodeConfig node_cfg = options.node;
  node_cfg.seed = options.seed;  // the scenario seed governs everything
  serve::ServeNode node(node_cfg);
  node.set_obs(options.obs);

  const double fps = pool.front().fps;
  const util::SimTime frame_period = util::from_seconds(1.0 / fps);

  net::UplinkConfig uplink_cfg;
  uplink_cfg.propagation_delay = options.propagation_delay;
  uplink_cfg.head_timeout = options.head_timeout;

  std::vector<AgentState> agents(static_cast<std::size_t>(options.sessions));
  for (int i = 0; i < options.sessions; ++i) {
    auto trace = std::make_shared<net::ConstantBandwidth>(
        net::mbps_to_bytes_per_sec(options.mbps));
    auto uplink = std::make_shared<net::Uplink>(trace, uplink_cfg);
    // Observed uplinks record net.* spans and the frame ledger's
    // uplink-queue / transmit / propagation stages.
    uplink->set_obs(options.obs);
    node.open_session(std::move(uplink));

    AgentState& agent = agents[static_cast<std::size_t>(i)];
    agent.clip_index = i % spec.clip_count;
    agent.clip = &pool[static_cast<std::size_t>(agent.clip_index)];
    codec::EncoderConfig enc_cfg;
    enc_cfg.width = options.width;
    enc_cfg.height = options.height;
    enc_cfg.gop_length = 48;
    enc_cfg.threads = options.encoder_threads;
    agent.encoder = std::make_unique<codec::Encoder>(enc_cfg);
    if (options.roi_metadata) {
      agent.preprocessor = std::make_unique<core::Preprocessor>(
          core::PreprocessConfig{},
          util::Rng(options.seed).fork(static_cast<std::uint64_t>(i)).seed());
    }
    agent.outcome.resize(static_cast<std::size_t>(options.frames_per_session));
    agent.offloaded.assign(
        static_cast<std::size_t>(options.frames_per_session), false);
  }

  const core::OfflineTracker tracker;

  // Results in flight back to their agents, kept sorted by delivery time.
  std::vector<serve::JobResult> inbox;
  auto absorb = [&](std::vector<serve::JobResult> results) {
    for (serve::JobResult& r : results) {
      AgentState& agent = agents[r.session_id];
      agent.outcome[r.frame_index] = r.detections;
      agent.offloaded[r.frame_index] = true;
      inbox.push_back(std::move(r));
    }
    std::sort(inbox.begin(), inbox.end(),
              [](const serve::JobResult& a, const serve::JobResult& b) {
                return a.result_at_agent < b.result_at_agent;
              });
  };
  auto deliver_until = [&](util::SimTime now) {
    std::size_t popped = 0;
    while (popped < inbox.size() &&
           inbox[popped].result_at_agent <= now) {
      const serve::JobResult& r = inbox[popped];
      AgentState& agent = agents[r.session_id];
      if (!agent.has_belief || r.frame_index >= agent.belief_frame) {
        agent.belief = r.detections;
        agent.belief_frame = r.frame_index;
        agent.has_belief = true;
      }
      ++popped;
    }
    inbox.erase(inbox.begin(),
                inbox.begin() + static_cast<std::ptrdiff_t>(popped));
  };

  long total_sidecar_bytes = 0;

  // Global capture order: per-session phase offsets spread arrivals
  // inside each frame period (and make capture times unique), so the
  // (frame, session) double loop IS time order.
  for (int f = 0; f < options.frames_per_session; ++f) {
    for (int s = 0; s < options.sessions; ++s) {
      AgentState& agent = agents[static_cast<std::size_t>(s)];
      const util::SimTime capture =
          static_cast<util::SimTime>(f) * frame_period +
          static_cast<util::SimTime>(s) * frame_period / options.sessions;

      absorb(node.run_until(capture));
      deliver_until(capture);

      // Causal identity: minted here, in global capture order on the
      // driving thread, so sequence (= flow id) assignment is identical
      // for every encoder thread count. The context rides the frame
      // through encoder spans, the uplink, admission, and dispatch.
      obs::FrameTraceContext ctx;
      if (options.obs != nullptr) {
        ctx = options.obs->ledger.begin_frame(
            static_cast<std::uint32_t>(s), static_cast<std::uint64_t>(f),
            capture, capture + node_cfg.session.deadline);
        options.obs->tracer.set_sim_now(capture);
        if (options.timeline != nullptr &&
            capture >= options.timeline->next()) {
          node.metrics().publish(options.obs->metrics);
          options.timeline->sample(capture);
        }
      }
      agent.encoder->set_frame_context(ctx);

      const video::Frame& image =
          agent.clip->frames[static_cast<std::size_t>(f)].image;
      const codec::MotionField motion = agent.encoder->analyze_motion(image);
      if (agent.need_resync) agent.encoder->request_intra();
      codec::EncodedFrame encoded = agent.encoder->encode(
          image, options.base_qp, nullptr, motion.empty() ? nullptr : &motion);

      // RoI metadata lane: the sidecar rides the uplink with the
      // bitstream and adds to its transmit time (this fixed-QP encoder
      // has no byte target).
      std::vector<std::uint8_t> sidecar;
      if (options.roi_metadata) {
        const core::PreprocessResult pre =
            agent.preprocessor->run(motion, agent.clip->camera);
        const core::ForegroundResult fg =
            agent.extractor.extract(pre, agent.clip->camera);
        sidecar = core::roi_sidecar(encoded, fg, options.width, options.height)
                      .serialize();
        total_sidecar_bytes += static_cast<long>(sidecar.size());
      }

      const util::SimTime ready =
          capture + options.latencies.analysis + options.latencies.encode;
      if (options.obs != nullptr) {
        // The modeled encode interval: the frame's sim-time encode stage
        // (the encoder's own ScopedSpans are wall-clocked).
        options.obs->ledger.stage(ctx, obs::FrameStage::kEncode, capture,
                                  ready);
        if (options.roi_metadata) {
          // Sidecar serialization is modeled as zero sim latency; the
          // zero-width stage still appears in the breakdown so sidecar
          // cost is named (its bytes are charged to transmit).
          options.obs->ledger.stage(ctx, obs::FrameStage::kSidecar, ready,
                                    ready);
        }
      }
      const net::TransmitResult tx =
          node.session(static_cast<std::uint32_t>(s))
              .uplink()
              .transmit_with_timeout(
                  static_cast<double>(encoded.bytes() + sidecar.size()),
                  ready, &ctx);

      bool fallback = false;
      if (!tx.delivered) {
        ++node.metrics().session(static_cast<std::uint32_t>(s)).dropped_uplink;
        if (options.obs != nullptr) {
          options.obs->ledger.outcome(ctx, obs::FrameOutcome::kDroppedUplink,
                                      tx.gave_up_at);
        }
        fallback = true;
      } else {
        serve::FrameJob job;
        job.session_id = static_cast<std::uint32_t>(s);
        job.frame_index = static_cast<std::uint64_t>(f);
        job.capture_time = capture;
        job.arrival = tx.arrival;
        job.data = std::move(encoded.data);
        job.roi_metadata = std::move(sidecar);
        job.trace = ctx;
        fallback = node.submit(std::move(job)) !=
                   serve::AdmissionVerdict::kAdmit;
      }

      if (fallback) {
        // Rejections degrade exactly like a link outage: MOT carries the
        // last known boxes forward and the decoder state at the edge is
        // behind, so the next upload must be intra.
        agent.need_resync = true;
        if (options.enable_offline_tracking && agent.has_belief) {
          agent.belief = tracker.track(agent.belief, motion, options.width,
                                       options.height);
        }
        agent.outcome[static_cast<std::size_t>(f)] = agent.belief;
      } else {
        agent.need_resync = false;
      }
    }
  }
  absorb(node.drain());
  if (options.obs != nullptr && options.timeline != nullptr) {
    // Final row after drain: node.drain() republished serve metrics, so
    // this snapshot carries the end-of-run totals.
    options.timeline->force_sample(
        static_cast<util::SimTime>(options.frames_per_session) *
        frame_period);
  }

  // Scoring: detections on raw frames are ground truth (paper protocol).
  const edge::ChromaDetector gt_detector{node_cfg.server.detector};
  std::vector<std::vector<edge::DetectionList>> truths(pool.size());
  for (std::size_t c = 0; c < pool.size(); ++c) {
    truths[c].reserve(pool[c].frames.size());
    for (const auto& rec : pool[c].frames)
      truths[c].push_back(gt_detector.detect(rec.image));
  }

  ServeScenarioResult result;
  edge::ApEvaluator all_eval;
  edge::ApEvaluator state_eval[3];
  for (int s = 0; s < options.sessions; ++s) {
    const AgentState& agent = agents[static_cast<std::size_t>(s)];
    const serve::SessionCounters& counters =
        node.metrics().session(static_cast<std::uint32_t>(s));
    edge::ApEvaluator session_eval;
    long offloaded = 0;
    for (int f = 0; f < options.frames_per_session; ++f) {
      const auto fi = static_cast<std::size_t>(f);
      const edge::DetectionList& truth =
          truths[static_cast<std::size_t>(agent.clip_index)][fi];
      session_eval.add_frame(agent.outcome[fi], truth);
      all_eval.add_frame(agent.outcome[fi], truth);
      const auto state =
          static_cast<std::size_t>(agent.clip->frames[fi].motion_state);
      state_eval[state].add_frame(agent.outcome[fi], truth);
      ++result.frames_by_state[state];
      if (agent.offloaded[fi]) ++offloaded;
    }

    ServeSessionResult sr;
    sr.id = static_cast<std::uint32_t>(s);
    sr.frames = options.frames_per_session;
    sr.offloaded = offloaded;
    sr.mot = sr.frames - offloaded;
    sr.dropped_queue = counters.dropped_queue;
    sr.dropped_deadline = counters.dropped_deadline;
    sr.dropped_uplink = counters.dropped_uplink;
    sr.map = session_eval.map();
    sr.mean_e2e_ms = counters.e2e_ms.mean();
    result.sessions.push_back(sr);
  }

  const serve::SessionCounters agg = node.metrics().aggregate();
  result.aggregate_map = all_eval.map();
  result.frames = static_cast<long>(options.sessions) *
                  options.frames_per_session;
  result.submitted = agg.submitted;
  result.admitted = agg.admitted;
  result.completed = agg.completed;
  result.dropped_queue = agg.dropped_queue;
  result.dropped_deadline = agg.dropped_deadline;
  result.dropped_uplink = agg.dropped_uplink;
  result.mot = result.frames - agg.completed;
  result.offload_fraction =
      result.frames > 0
          ? static_cast<double>(agg.completed) /
                static_cast<double>(result.frames)
          : 0.0;
  result.mean_e2e_ms = agg.e2e_ms.mean();
  result.p95_e2e_ms = agg.e2e_ms.empty() ? 0.0 : agg.e2e_ms.quantile(0.95);
  result.mean_wait_ms = agg.wait_ms.mean();
  result.mean_batch = agg.batch_size.mean();
  result.mean_queue_depth = agg.queue_depth.mean();
  for (int st = 0; st < 3; ++st) {
    if (result.frames_by_state[st] > 0)
      result.map_by_state[st] = state_eval[st].map();
  }
  result.gated = agg.gated;
  result.full_inference = agg.full_inference;
  result.propagated_boxes = agg.propagated_boxes;
  result.sidecar_bytes = total_sidecar_bytes;
  result.mean_gate_work = agg.gate_work.mean();
  result.mean_gated_pixel_fraction = agg.gate_pixel_fraction.mean();
  result.metrics = node.metrics();
  return result;
}

}  // namespace dive::harness
