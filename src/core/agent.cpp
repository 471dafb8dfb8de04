#include "core/agent.h"

#include "obs/obs.h"

namespace dive::core {

namespace {

/// The agent-level thread knob fills in the encoder config unless the
/// caller already pinned a count there.
codec::EncoderConfig with_threads(codec::EncoderConfig ec, int threads) {
  if (ec.threads == 0) ec.threads = threads;
  return ec;
}

}  // namespace

roi::RoiMetadata roi_sidecar(const codec::EncodedFrame& encoded,
                             const ForegroundResult& fg, int width,
                             int height) {
  roi::RoiMetadata meta = roi::from_encoded(encoded, width, height);
  for (const auto& region : fg.regions)
    roi::add_region(meta, region.hull);
  return meta;
}

DiveAgent::DiveAgent(DiveConfig config, codec::EncoderConfig encoder_config,
                     geom::PinholeCamera camera,
                     std::shared_ptr<net::Uplink> uplink,
                     std::shared_ptr<edge::EdgeServer> server)
    : config_(config),
      encoder_(with_threads(encoder_config, config.encode_threads)),
      camera_(camera),
      uplink_(std::move(uplink), config.fps),
      server_(std::move(server)),
      preprocessor_(config.preprocess, config.seed),
      extractor_(config.foreground),
      qp_assigner_(config.qp) {
  if (config_.obs != nullptr) {
    encoder_.set_obs(config_.obs);
    uplink_.link().set_obs(config_.obs);
    server_->set_obs(config_.obs);
  }
}

FrameOutcome DiveAgent::process_frame(const video::Frame& frame,
                                      util::SimTime capture_time) {
  FrameOutcome outcome;
  obs::ObsContext* obs = config_.obs;
  if (obs != nullptr) obs->tracer.set_sim_now(capture_time);
  // Causal identity for this frame (single-agent pipeline = session 0):
  // encoder spans join its flow, the ledger collects its stages.
  const std::uint64_t frame_index = frame_seq_++;
  obs::FrameTraceContext trace_ctx;
  if (obs != nullptr) {
    trace_ctx = obs->ledger.begin_frame(0, frame_index, capture_time);
    encoder_.set_frame_context(trace_ctx);
  }
  DIVE_OBS_SPAN(frame_span, obs, "agent.frame", obs::kTrackAgent);
  frame_span.flow(trace_ctx);

  // 1-2. Motion vectors from the codec, then preprocessing.
  codec::MotionField motion;
  {
    DIVE_OBS_SPAN(span, obs, "agent.mv_harvest", obs::kTrackAgent);
    motion = encoder_.analyze_motion(frame);
    span.arg("nonzero_permille",
             static_cast<long long>(motion.empty()
                                        ? 0
                                        : motion.nonzero_ratio() * 1000.0));
  }
  {
    // Ego-motion judgement (eta) + R-sampling/RANSAC rotation estimate.
    DIVE_OBS_SPAN(span, obs, "agent.preprocess", obs::kTrackAgent);
    last_pre_ = preprocessor_.run(motion, camera_);
    span.arg("eta_permille", static_cast<long long>(last_pre_.eta * 1000.0));
    span.arg("moving", last_pre_.agent_moving ? 1 : 0);
    span.arg("rotation_valid", last_pre_.rotation_valid ? 1 : 0);
  }

  // 3. Foreground extraction (falls back to the last foreground when the
  //    agent is stopped or no motion field exists).
  {
    DIVE_OBS_SPAN(span, obs, "agent.foreground", obs::kTrackAgent);
    last_fg_ = extractor_.extract(last_pre_, camera_);
    span.arg("regions", static_cast<long long>(last_fg_.regions.size()));
    span.arg("fallback", last_fg_.from_fallback ? 1 : 0);
  }

  // 4. Adaptive video encoding to the estimated uplink budget.
  const int mb_cols = frame.width() / codec::kMacroblockSize;
  const int mb_rows = frame.height() / codec::kMacroblockSize;
  codec::QpOffsetMap offsets;
  {
    DIVE_OBS_SPAN(span, obs, "agent.qp_assign", obs::kTrackAgent);
    QpAssignment assignment = qp_assigner_.assign(last_fg_, mb_cols, mb_rows);
    offsets = std::move(assignment.map);
    last_delta_ = assignment.background_delta;
    span.arg("bg_delta", last_delta_);
  }
  const auto target_bytes =
      static_cast<std::size_t>(uplink_.frame_budget(capture_time));

  if (need_resync_) {
    encoder_.request_intra();
    if (obs != nullptr) obs->metrics.counter("agent.intra_resyncs").add();
  }
  codec::EncodedFrame& encoded = last_encoded_;
  {
    DIVE_OBS_SPAN(span, obs, "agent.encode", obs::kTrackAgent);
    encoded = encoder_.encode_to_target(frame, target_bytes, &offsets,
                                        motion.empty() ? nullptr : &motion);
    span.arg("base_qp", encoded.base_qp);
    span.arg("bytes", static_cast<long long>(encoded.bytes()));
    span.arg("trials",
             static_cast<long long>(
                 encoder_.rate_control_stats().trials_attempted));
  }
  outcome.base_qp = encoded.base_qp;

  // RoI sidecar: the MB grid plus the FE hulls, serialized into the
  // metadata lane (the edge decodes motion and SKIP from the bitstream).
  // Its bytes ride the uplink with the frame on top of the encoder's byte
  // target, so the upload runs above the estimated rate; the video
  // bitstream stays byte-identical.
  roi::RoiMetadata meta;
  std::vector<std::uint8_t> sidecar;
  if (config_.roi_metadata) {
    DIVE_OBS_SPAN(span, obs, "agent.roi_metadata", obs::kTrackAgent);
    meta = roi_sidecar(encoded, last_fg_, frame.width(), frame.height());
    sidecar = meta.serialize();
    span.arg("bytes", static_cast<long long>(sidecar.size()));
  }
  const std::size_t upload_bytes = encoded.bytes() + sidecar.size();

  const util::SimTime ready =
      capture_time + kAgentLatencies.analysis + kAgentLatencies.encode;
  if (obs != nullptr) {
    // The modelled on-agent compute interval of the Fig. 5 pipeline; the
    // uplink records its own stages.
    obs->ledger.stage(trace_ctx, obs::FrameStage::kEncode, capture_time,
                      ready);
    if (config_.roi_metadata) {
      // Sidecar serialization is modeled at zero sim latency; the stage
      // still appears so the breakdown names it (bytes ride the uplink).
      obs->ledger.stage(trace_ctx, obs::FrameStage::kSidecar, ready, ready);
    }
    auto& m = obs->metrics;
    m.counter("agent.frames").add();
    m.distribution("agent.eta", "ratio").add(last_pre_.eta);
    m.distribution("agent.fg_area_pct", "%")
        .add(100.0 * last_fg_.area_fraction(frame.width(), frame.height()));
    m.distribution("agent.bg_delta", "qp").add(last_delta_);
    m.distribution("agent.encode_trials", "count")
        .add(encoder_.rate_control_stats().trials_attempted);
    m.gauge("agent.last_eta", "ratio").set(last_pre_.eta);
  }

  // 5. Upload with head-of-line outage detection.
  net::TransmitResult tx;
  {
    DIVE_OBS_SPAN(span, obs, "agent.transmit", obs::kTrackAgent);
    tx = uplink_.send(upload_bytes, ready, &trace_ctx);
    span.arg("delivered", tx.delivered ? 1 : 0);
  }
  if (tx.delivered) {
    need_resync_ = false;
    outcome.bytes_sent = upload_bytes;
    outcome.offloaded = true;
    edge::InferenceResult inference;
    edge::GatePlan plan;
    {
      DIVE_OBS_SPAN(span, obs, "agent.edge_infer", obs::kTrackAgent);
      inference = server_->process(encoded.data, tx.arrival,
                                   config_.roi_metadata ? &meta : nullptr,
                                   &plan);
      if (config_.roi_metadata) span.arg("gated", plan.gated ? 1 : 0);
    }
    last_detections_ = inference.detections;
    outcome.detections = inference.detections;
    outcome.response_time = inference.result_at_agent - capture_time;
    if (obs != nullptr) {
      const util::SimTime served =
          inference.result_at_agent - edge::kDownlinkDelay;
      obs->ledger.stage(trace_ctx, obs::FrameStage::kInference, tx.arrival,
                        served);
      obs->ledger.stage(trace_ctx, obs::FrameStage::kResult, served,
                        inference.result_at_agent);
      obs->ledger.outcome(trace_ctx, obs::FrameOutcome::kCompleted,
                          inference.result_at_agent);
      obs->metrics.counter("agent.offloaded").add();
      obs->metrics.counter("agent.bytes_sent", "bytes")
          .add(static_cast<std::int64_t>(upload_bytes));
      obs->metrics.distribution("agent.response_ms", "ms")
          .add(util::to_millis(outcome.response_time));
      if (config_.roi_metadata) {
        auto& m = obs->metrics;
        m.counter("roi.sidecar_bytes", "bytes")
            .add(static_cast<std::int64_t>(sidecar.size()));
        m.counter(plan.gated ? "roi.gated_frames" : "roi.full_frames").add();
        m.distribution("roi.pixel_fraction", "ratio").add(plan.pixel_fraction);
        m.distribution("roi.coverage", "ratio").add(plan.coverage);
        m.gauge("roi.propagated_boxes", "count")
            .set(static_cast<double>(server_->gate_stats().propagated_boxes));
      }
    }
    return outcome;
  }

  // Link outage: the frame never reached the edge. The decoder state at
  // the server is now behind ours, so the next delivered frame must be
  // intra-coded.
  need_resync_ = true;
  {
    DIVE_OBS_SPAN(span, obs, "agent.mot_fallback", obs::kTrackAgent);
    if (config_.enable_offline_tracking) {
      last_detections_ = tracker_.track(last_detections_, motion,
                                        frame.width(), frame.height());
      outcome.detections = last_detections_;
    } else {
      // Without MOT the agent simply reuses the stale result.
      outcome.detections = last_detections_;
    }
  }
  outcome.response_time =
      (tx.gave_up_at - capture_time) + kAgentLatencies.local_track;
  outcome.offloaded = false;
  if (obs != nullptr) {
    obs->metrics.counter("agent.fallbacks").add();
    obs->metrics.distribution("agent.response_ms", "ms")
        .add(util::to_millis(outcome.response_time));
    obs->tracer.span_at("agent.mot_track", obs::kTrackAgent, tx.gave_up_at,
                        tx.gave_up_at + kAgentLatencies.local_track, {},
                        trace_ctx.flow_id());
    obs->ledger.outcome(trace_ctx, obs::FrameOutcome::kDroppedUplink,
                        tx.gave_up_at);
  }
  return outcome;
}

}  // namespace dive::core
