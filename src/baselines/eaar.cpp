#include "baselines/eaar.h"

#include <algorithm>

#include "core/qp_assigner.h"

namespace dive::baselines {

namespace {

/// QP inside the cached-detection ROIs and everywhere else (the EAAR
/// paper's defaults).
constexpr int kHighQualityQp = 30;
constexpr int kLowQualityQp = 40;
/// Cached detection boxes are inflated by this many pixels when forming
/// the ROI map (objects move between key frames).
constexpr double kRoiPaddingPx = 12.0;

}  // namespace

codec::EncodedFrame EaarScheme::encode_keyframe(const video::Frame& frame,
                                                std::size_t /*budget*/) {
  // EAAR does not rate-adapt: fixed QP 30 in cached-detection ROIs,
  // QP 40 elsewhere.
  const codec::QpOffsetMap offsets = core::QpAssigner::box_map(
      last_keyframe_detections(), kRoiPaddingPx,
      kLowQualityQp - kHighQualityQp,
      frame.width() / codec::kMacroblockSize,
      frame.height() / codec::kMacroblockSize);
  return encoder().encode(frame, kHighQualityQp, &offsets);
}

util::SimTime EaarScheme::adjust_result_time(util::SimTime nominal,
                                             util::SimTime arrival) const {
  // Parallel streaming and inference: decoding happens per slice during
  // transfer and inference overlaps roughly half its span.
  const edge::ServerConfig& cfg = server().config();
  const util::SimTime saved = cfg.decode_latency + cfg.inference_latency / 2;
  return std::max(arrival, nominal - saved);
}

}  // namespace dive::baselines
