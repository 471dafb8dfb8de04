// Common interface every edge-assisted video-analytics scheme implements
// (DiVE plus the O3 / EAAR / DDS baselines of Sec. IV-A). The experiment
// harness drives a scheme frame by frame against simulated time and scores
// the detections it reports for each frame.
#pragma once

#include <cstddef>

#include "edge/detection.h"
#include "util/sim_clock.h"
#include "video/frame.h"

namespace dive::core {

/// What a scheme produced for one captured frame.
struct FrameOutcome {
  edge::DetectionList detections;
  /// Capture -> final result in the agent's hands (the paper's Response
  /// Time metric).
  util::SimTime response_time = 0;
  /// True when the result came from edge inference of this very frame
  /// (false: local tracking / reuse).
  bool offloaded = false;
  std::size_t bytes_sent = 0;
  int base_qp = -1;
};

class AnalyticsScheme {
 public:
  virtual ~AnalyticsScheme() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Processes the frame captured at `capture_time` and returns the
  /// detections the agent ends up holding for it.
  virtual FrameOutcome process_frame(const video::Frame& frame,
                                     util::SimTime capture_time) = 0;

  /// Optional lookahead: announces the frame a driver will feed to the
  /// NEXT process_frame call. No scheme acts on it; it remains a no-op
  /// so existing callers keep compiling.
  virtual void hint_next_frame(const video::Frame& next) { (void)next; }
};

/// Latency constants modelling on-agent compute, shared across schemes so
/// comparisons are fair.
struct AgentLatencies {
  util::SimTime encode = util::from_millis(12.0);
  util::SimTime analysis = util::from_millis(4.0);  ///< DiVE FE etc.
  util::SimTime local_track = util::from_millis(2.0);
};

}  // namespace dive::core
