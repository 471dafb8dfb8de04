#include "edge/server.h"

#include <cmath>

#include "obs/obs.h"

namespace dive::edge {

InferenceResult EdgeServer::process(std::span<const std::uint8_t> data,
                                    util::SimTime arrival,
                                    const roi::RoiMetadata* meta,
                                    GatePlan* plan_out) {
  const codec::DecodedFrame decoded = decoder_.decode(data);
  GatePlan p = plan(meta, decoded.frame.width(), decoded.frame.height());
  InferenceResult result;
  result.detections = infer(decoded.frame, meta, p).detections;

  const auto inference = static_cast<util::SimTime>(std::llround(
      static_cast<double>(config_.inference_latency) * p.work));
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
  if (plan_out != nullptr) *plan_out = std::move(p);
  return result;
}

GatePlan EdgeServer::plan(const roi::RoiMetadata* meta, int width,
                          int height) {
  return plan_gate(gate_, meta, width, height, gate_stats_.planned++);
}

GatedDetections EdgeServer::run(std::span<const std::uint8_t> data,
                                const roi::RoiMetadata* meta,
                                const GatePlan& plan) {
  return infer(decoder_.decode(data).frame, meta, plan);
}

GatedDetections EdgeServer::infer(const video::Frame& frame,
                                  const roi::RoiMetadata* meta,
                                  const GatePlan& plan) {
  GatedDetections out;
  // A plan gates only against a sidecar on the decoded frame's MB grid.
  if (plan.gated && meta != nullptr && meta->width() == frame.width() &&
      meta->height() == frame.height()) {
    out = infer_gated(gate_, frame, *meta, plan, held_, detector_);
    ++gate_stats_.gated;
    gate_stats_.propagated_boxes += out.propagated;
  } else {
    out.detections = detector_.detect(frame);
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
