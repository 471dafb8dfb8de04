#include "edge/server.h"

#include "obs/obs.h"

namespace dive::edge {

InferenceResult EdgeServer::process(std::span<const std::uint8_t> data,
                                    util::SimTime arrival) {
  InferenceResult result;
  result.detections = detector_.detect(decoder_.decode(data).frame);

  const util::SimTime jitter = inference_jitter(processed_++);
  result.result_at_agent = arrival + config_.decode_latency +
                           config_.inference_latency + jitter +
                           config_.downlink_delay;

  if (obs_ != nullptr) {
    obs_->metrics.counter("edge.frames").add();
    obs_->metrics.counter("edge.detections")
        .add(static_cast<std::int64_t>(result.detections.size()));
    obs_->metrics.distribution("edge.service_ms", "ms")
        .add(util::to_millis(result.result_at_agent - arrival));
  }
  return result;
}

DetectionList EdgeServer::decode_and_detect(
    std::span<const std::uint8_t> data) {
  return detector_.detect(decode(data).frame);
}

codec::DecodedFrame EdgeServer::decode(std::span<const std::uint8_t> data) {
  codec::DecodedFrame decoded = decoder_.decode(data);
  if (obs_ != nullptr) obs_->metrics.counter("edge.decodes").add();
  return decoded;
}

util::SimTime EdgeServer::inference_jitter(std::uint64_t frame_index) const {
  util::Rng stream = rng_.fork(frame_index);
  return util::from_millis(stream.uniform(-config_.inference_jitter_ms,
                                          config_.inference_jitter_ms));
}

}  // namespace dive::edge
