#include "baselines/raw_stream.h"

#include <algorithm>

namespace dive::baselines {

core::FrameOutcome RawStreamScheme::process_frame(const video::Frame& frame,
                                                  util::SimTime capture_time) {
  core::FrameOutcome outcome;
  const double budget_rate = bandwidth_.target_bytes_per_sec(capture_time);
  const auto target = static_cast<std::size_t>(
      std::max(1.0, budget_rate / config_.fps));

  const codec::EncodedFrame encoded = encoder_.encode_to_target(frame, target);
  outcome.base_qp = encoded.base_qp;
  const util::SimTime ready = capture_time + core::kAgentLatencies.encode;
  const net::TransmitResult tx = uplink_->transmit_with_timeout(
      static_cast<double>(encoded.bytes()), ready);
  if (!tx.delivered) {
    encoder_.request_intra();
    outcome.detections = last_detections_;
    outcome.response_time =
        (tx.gave_up_at - capture_time) + core::kAgentLatencies.local_track;
    return outcome;
  }
  bandwidth_.add_transmission(static_cast<double>(encoded.bytes()), tx.started,
                              tx.sent_complete);
  const edge::InferenceResult inference =
      server_->process(encoded.data, tx.arrival);
  last_detections_ = inference.detections;
  outcome.detections = last_detections_;
  outcome.bytes_sent = encoded.bytes();
  outcome.offloaded = true;
  outcome.response_time = inference.result_at_agent - capture_time;
  return outcome;
}

}  // namespace dive::baselines
