#include "baselines/dds.h"

#include <algorithm>

#include "core/qp_assigner.h"

namespace dive::baselines {

namespace {

/// Budget split between the low-quality and high-quality passes.
constexpr double kPass1BudgetShare = 0.45;
/// Feedback regions are detection boxes inflated by this padding.
constexpr double kRegionPaddingPx = 14.0;
/// Background offset applied outside feedback regions in pass 2.
constexpr int kPass2BackgroundDelta = 18;
/// When the uplink backlog at capture exceeds this, the frame is
/// skipped (stale result reused) — real DDS deployments drop to a lower
/// processing rate rather than queueing unboundedly, since each frame
/// costs two serialized uploads plus a feedback round trip.
constexpr util::SimTime kSkipBacklog = util::from_millis(70.0);

}  // namespace

DdsScheme::DdsScheme(double fps, codec::EncoderConfig encoder_config,
                     std::shared_ptr<net::Uplink> uplink,
                     std::shared_ptr<edge::EdgeServer> server,
                     std::uint64_t seed)
    : encoder_low_(encoder_config),
      encoder_high_(encoder_config),
      uplink_(std::move(uplink), fps),
      server_low_(std::move(server)),
      server_high_(server_low_->config(), seed + 1) {}

core::FrameOutcome DdsScheme::process_frame(const video::Frame& frame,
                                            util::SimTime capture_time) {
  core::FrameOutcome outcome;

  // Behind the camera: skip this frame and keep the stale result. The
  // encoders do not advance, so encoder and decoder references stay in
  // sync without an intra resync.
  if (uplink_.link().busy_until() - capture_time > kSkipBacklog) {
    outcome.detections = last_detections_;
    outcome.response_time = core::kAgentLatencies.local_track;
    return outcome;
  }

  const double frame_budget = uplink_.frame_budget(capture_time);

  // ---- Pass 1: whole frame, low quality ----
  const auto budget1 = static_cast<std::size_t>(
      frame_budget * kPass1BudgetShare);
  const codec::EncodedFrame pass1 =
      encoder_low_.encode_to_target(frame, budget1);
  const util::SimTime ready1 = capture_time + core::kAgentLatencies.encode;
  const net::TransmitResult tx1 = uplink_.send(pass1.bytes(), ready1);
  if (!tx1.delivered) {
    // Outage: DDS has no local fallback; it reuses the stale result.
    encoder_low_.request_intra();
    encoder_high_.request_intra();
    outcome.detections = last_detections_;
    outcome.response_time =
        (tx1.gave_up_at - capture_time) + core::kAgentLatencies.local_track;
    return outcome;
  }
  const edge::InferenceResult feedback =
      server_low_->process(pass1.data, tx1.arrival);
  outcome.bytes_sent += pass1.bytes();

  // ---- Feedback -> pass 2 QP map ----
  const int mb_cols = frame.width() / codec::kMacroblockSize;
  const int mb_rows = frame.height() / codec::kMacroblockSize;
  const codec::QpOffsetMap offsets = core::QpAssigner::box_map(
      feedback.detections, kRegionPaddingPx, kPass2BackgroundDelta, mb_cols,
      mb_rows);

  // ---- Pass 2: high-quality regions, after the feedback lands ----
  const auto budget2 = static_cast<std::size_t>(
      std::max(1.0, frame_budget * (1.0 - kPass1BudgetShare)));
  const codec::EncodedFrame pass2 =
      encoder_high_.encode_to_target(frame, budget2, &offsets);
  outcome.base_qp = pass2.base_qp;
  const util::SimTime ready2 =
      feedback.result_at_agent + core::kAgentLatencies.encode;
  const net::TransmitResult tx2 = uplink_.send(pass2.bytes(), ready2);
  if (!tx2.delivered) {
    encoder_high_.request_intra();
    // Keep the pass-1 detections: better than nothing.
    last_detections_ = feedback.detections;
    outcome.detections = last_detections_;
    outcome.response_time = feedback.result_at_agent - capture_time;
    return outcome;
  }
  const edge::InferenceResult final_result =
      server_high_.process(pass2.data, tx2.arrival);
  outcome.bytes_sent += pass2.bytes();

  last_detections_ = final_result.detections;
  outcome.detections = last_detections_;
  outcome.offloaded = true;
  outcome.response_time = final_result.result_at_agent - capture_time;
  return outcome;
}

}  // namespace dive::baselines
