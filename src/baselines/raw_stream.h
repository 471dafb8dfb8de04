// Upper-bound reference scheme: every frame uploaded with rate-adaptive
// uniform quality (no foreground differentiation, no tracking fallback).
// Not one of the paper's baselines — used by tests and ablations to
// isolate the contribution of DiVE's differential encoding.
#pragma once

#include <memory>

#include "codec/encoder.h"
#include "core/bandwidth_estimator.h"
#include "core/scheme.h"
#include "edge/server.h"
#include "net/uplink.h"

namespace dive::baselines {

class RawStreamScheme final : public core::AnalyticsScheme {
 public:
  RawStreamScheme(double fps, codec::EncoderConfig encoder_config,
                  std::shared_ptr<net::Uplink> uplink,
                  std::shared_ptr<edge::EdgeServer> server)
      : encoder_(encoder_config),
        uplink_(std::move(uplink), fps),
        server_(std::move(server)) {}

  core::FrameOutcome process_frame(const video::Frame& frame,
                             util::SimTime capture_time) override;

 private:
  codec::Encoder encoder_;
  core::AgentUplink uplink_;
  std::shared_ptr<edge::EdgeServer> server_;
  edge::DetectionList last_detections_;
};

}  // namespace dive::baselines
