#include "edge/server.h"

#include <cmath>

#include "obs/obs.h"

namespace dive::edge {

InferenceResult EdgeServer::process(std::span<const std::uint8_t> data,
                                    util::SimTime arrival,
                                    const roi::RoiMetadata* meta,
                                    GatePlan* plan_out) {
  PlannedFrame planned = plan(data, meta);
  InferenceResult result;
  result.detections = run(planned).detections;

  const auto inference = static_cast<util::SimTime>(std::llround(
      static_cast<double>(config_.inference_latency) * planned.plan.work));
  const util::SimTime jitter = inference_jitter(processed_++);
  result.result_at_agent = arrival + config_.decode_latency + inference +
                           jitter + kDownlinkDelay;

  if (obs_ != nullptr) {
    obs_->metrics.counter("edge.frames").add();
    obs_->metrics.counter("edge.detections")
        .add(static_cast<std::int64_t>(result.detections.size()));
    obs_->metrics.distribution("edge.service_ms", "ms")
        .add(util::to_millis(result.result_at_agent - arrival));
  }
  if (plan_out != nullptr) *plan_out = std::move(planned.plan);
  return result;
}

PlannedFrame EdgeServer::plan(std::span<const std::uint8_t> data,
                              const roi::RoiMetadata* meta) {
  PlannedFrame out;
  out.decoded = decoder_.decode(data);
  out.plan = plan_gate(gate_, meta, out.decoded, gate_stats_.planned++);
  return out;
}

GatedDetections EdgeServer::run(const PlannedFrame& frame) {
  GatedDetections out;
  if (frame.plan.gated) {
    out = infer_gated(gate_, frame.decoded, frame.plan, held_, detector_);
    ++gate_stats_.gated;
    gate_stats_.propagated_boxes += out.propagated;
  } else {
    out.detections = detector_.detect(frame.decoded.frame);
    out.fresh = static_cast<int>(out.detections.size());
    ++gate_stats_.full;
  }
  held_ = out.detections;
  return out;
}

util::SimTime EdgeServer::inference_jitter(std::uint64_t frame_index) const {
  util::Rng stream = rng_.fork(frame_index);
  return util::from_millis(stream.uniform(-kInferenceJitterMs,
                                          kInferenceJitterMs));
}

}  // namespace dive::edge
