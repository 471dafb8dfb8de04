#include "baselines/eaar.h"

#include <algorithm>

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
  const int mb_cols = frame.width() / codec::kMacroblockSize;
  const int mb_rows = frame.height() / codec::kMacroblockSize;
  constexpr int delta = kLowQualityQp - kHighQualityQp;
  codec::QpOffsetMap offsets(mb_cols, mb_rows,
                             static_cast<std::int8_t>(delta));

  const double pad = kRoiPaddingPx;
  for (const auto& det : last_keyframe_detections()) {
    const geom::Box roi{det.box.x0 - pad, det.box.y0 - pad, det.box.x1 + pad,
                        det.box.y1 + pad};
    const double mb = codec::kMacroblockSize;
    const int c0 = std::max(0, static_cast<int>(roi.x0 / mb));
    const int c1 = std::min(mb_cols - 1, static_cast<int>(roi.x1 / mb));
    const int r0 = std::max(0, static_cast<int>(roi.y0 / mb));
    const int r1 = std::min(mb_rows - 1, static_cast<int>(roi.y1 / mb));
    for (int row = r0; row <= r1; ++row)
      for (int col = c0; col <= c1; ++col) offsets.at(col, row) = 0;
  }
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
