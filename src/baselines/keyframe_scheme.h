// Shared machinery for the key-frame-based baselines (O3 and EAAR,
// Sec. IV-A): select key frames, upload them for edge inference, and run
// motion-vector tracking locally for every other frame — using the same
// tracker as DiVE's MOT, as the paper does for fairness.
//
// Edge results arrive asynchronously: a key frame's detections only
// become usable once they land back on the agent, at which point they are
// fast-forwarded through the motion fields of the frames captured in the
// meantime.
#pragma once

#include <deque>
#include <memory>

#include "codec/encoder.h"
#include "codec/motion_search.h"
#include "core/bandwidth_estimator.h"
#include "core/offline_tracker.h"
#include "core/scheme.h"
#include "edge/server.h"
#include "net/uplink.h"

namespace dive::baselines {

struct KeyframeSchemeConfig {
  double fps = 12.0;
  core::AgentLatencies latencies;
  core::BandwidthEstimatorConfig bandwidth;
  core::OfflineTrackerConfig tracker;
};

class KeyframeScheme : public core::AnalyticsScheme {
 public:
  KeyframeScheme(KeyframeSchemeConfig config,
                 codec::EncoderConfig encoder_config,
                 std::shared_ptr<net::Uplink> uplink,
                 std::shared_ptr<edge::EdgeServer> server);

  core::FrameOutcome process_frame(const video::Frame& frame,
                                   util::SimTime capture_time) final;

 protected:
  /// Encodes a key frame; subclasses choose intra-vs-ROI policy and QP.
  virtual codec::EncodedFrame encode_keyframe(const video::Frame& frame,
                                              std::size_t budget_bytes) = 0;

  /// Hook for modelling pipelined transmission/inference (EAAR): maps the
  /// server's nominal result time to the scheme's effective one.
  [[nodiscard]] virtual util::SimTime adjust_result_time(
      util::SimTime nominal, util::SimTime arrival) const {
    (void)arrival;
    return nominal;
  }

  codec::Encoder& encoder() { return encoder_; }
  core::BandwidthEstimator& bandwidth() { return bandwidth_; }
  [[nodiscard]] const edge::DetectionList& last_keyframe_detections() const {
    return current_;
  }

 private:
  struct PendingResult {
    edge::DetectionList detections;
    util::SimTime available_at = 0;
    long keyframe_index = 0;
  };

  [[nodiscard]] bool is_keyframe(const video::Frame& frame) const;
  void adopt_ready_results(util::SimTime now);

  KeyframeSchemeConfig config_;
  codec::Encoder encoder_;
  codec::MotionSearcher tracker_searcher_;
  std::shared_ptr<net::Uplink> uplink_;
  std::shared_ptr<edge::EdgeServer> server_;
  core::BandwidthEstimator bandwidth_;
  core::OfflineTracker tracker_;

  video::Frame previous_raw_;      ///< tracking + diff-trigger reference
  bool has_previous_ = false;
  bool has_keyframe_ = false;
  long frame_index_ = 0;
  long last_keyframe_index_ = 0;

  edge::DetectionList current_;    ///< agent's live (tracked) detections
  std::deque<PendingResult> pending_;
  /// Motion fields since the oldest outstanding key frame, for
  /// fast-forwarding results when they arrive.
  std::deque<std::pair<long, codec::MotionField>> field_history_;
};

}  // namespace dive::baselines
