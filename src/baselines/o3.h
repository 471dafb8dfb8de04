// O3 baseline (Hanyao et al., INFOCOM 2021): uploads key frames to the
// edge for detection and corrects local tracking with the returned
// results. Key frames are intra-coded (each upload stands alone) and
// rate-adapted to the bandwidth budget accumulated since the previous
// key frame.
#pragma once

#include "baselines/keyframe_scheme.h"

namespace dive::baselines {

class O3Scheme final : public KeyframeScheme {
 public:
  using KeyframeScheme::KeyframeScheme;

 protected:
  codec::EncodedFrame encode_keyframe(const video::Frame& frame,
                                      std::size_t budget_bytes) override {
    encoder().request_intra();
    return encoder().encode_to_target(frame, budget_bytes);
  }
};

}  // namespace dive::baselines
