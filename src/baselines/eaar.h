// EAAR baseline (Liu et al., SIGCOMM 2019): edge-assisted AR object
// detection with (a) ROI encoding of key frames guided by the cached
// detection results — QP 30 inside regions of interest, QP 40 elsewhere,
// the paper's defaults — and (b) parallel streaming + inference, modelled
// as the decode latency and half the inference latency overlapping the
// transfer.
#pragma once

#include "baselines/keyframe_scheme.h"

namespace dive::baselines {

class EaarScheme final : public KeyframeScheme {
 public:
  using KeyframeScheme::KeyframeScheme;

 protected:
  codec::EncodedFrame encode_keyframe(const video::Frame& frame,
                                      std::size_t budget_bytes) override;

  /// Pipelining saves the server's decode latency plus half its
  /// inference latency (ServerConfig), never landing before `arrival`.
  util::SimTime adjust_result_time(util::SimTime nominal,
                                   util::SimTime arrival) const override;
};

}  // namespace dive::baselines
