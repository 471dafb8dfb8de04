#include "baselines/raw_stream.h"

namespace dive::baselines {

core::FrameOutcome RawStreamScheme::process_frame(const video::Frame& frame,
                                                  util::SimTime capture_time) {
  core::FrameOutcome outcome;
  const auto target =
      static_cast<std::size_t>(uplink_.frame_budget(capture_time));

  const codec::EncodedFrame encoded = encoder_.encode_to_target(frame, target);
  outcome.base_qp = encoded.base_qp;
  const util::SimTime ready = capture_time + core::kAgentLatencies.encode;
  const net::TransmitResult tx = uplink_.send(encoded.bytes(), ready);
  if (!tx.delivered) {
    encoder_.request_intra();
    outcome.detections = last_detections_;
    outcome.response_time =
        (tx.gave_up_at - capture_time) + core::kAgentLatencies.local_track;
    return outcome;
  }
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
