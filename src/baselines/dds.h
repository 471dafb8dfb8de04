// DDS baseline (Du et al., SIGCOMM 2020): server-driven two-pass
// streaming, at frame granularity (as the paper configures it for fair
// comparison). Pass 1 uploads the whole frame at low quality; the server's
// detections come back as feedback regions; pass 2 re-uploads those
// regions at high quality and the server re-infers for the final result.
// Every frame therefore pays two upload+inference round trips — the source
// of DDS's higher response time — while its accuracy tracks DiVE's except
// when the low-quality pass misses objects entirely (low bandwidth).
#pragma once

#include <memory>

#include "codec/encoder.h"
#include "core/bandwidth_estimator.h"
#include "core/scheme.h"
#include "edge/server.h"
#include "net/uplink.h"

namespace dive::baselines {

class DdsScheme final : public core::AnalyticsScheme {
 public:
  /// DDS keeps two streams (low-quality full video + high-quality
  /// regions), hence two decoders on the server side: pass 1 runs on
  /// `server`, pass 2 on a private server with the same config and
  /// seed + 1, so the two decoder states never mix.
  DdsScheme(double fps, codec::EncoderConfig encoder_config,
            std::shared_ptr<net::Uplink> uplink,
            std::shared_ptr<edge::EdgeServer> server, std::uint64_t seed);

  core::FrameOutcome process_frame(const video::Frame& frame,
                             util::SimTime capture_time) override;

 private:
  codec::Encoder encoder_low_;
  codec::Encoder encoder_high_;
  core::AgentUplink uplink_;
  std::shared_ptr<edge::EdgeServer> server_low_;
  edge::EdgeServer server_high_;
  edge::DetectionList last_detections_;
};

}  // namespace dive::baselines
