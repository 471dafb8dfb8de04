// Uplink bandwidth estimation (Sec. III-D1): the agent estimates capacity
// from the encoded data it successfully pushed through the radio inside a
// sliding window. We measure goodput per transmission burst (bytes over
// the busy interval), which tracks true capacity even when the link is
// idle between frames, and average the bursts that overlap the window.
//
// AgentUplink couples the estimator with the agent's radio so every
// scheme (DiVE and the baselines) budgets and feeds back identically.
#pragma once

#include <deque>
#include <memory>

#include "net/uplink.h"
#include "util/sim_clock.h"

namespace dive::core {

class BandwidthEstimator {
 public:
  /// Bursts overlapping [now - kWindow, now] make up the estimate.
  static constexpr util::SimTime kWindow = util::from_seconds(2.0);
  /// 1 Mbps until the first ack.
  static constexpr double kPriorBytesPerSec = 125'000.0;
  /// Safety factor applied by `target_bytes_per_sec` so queues drain.
  static constexpr double kSafety = 0.9;

  /// Records a completed transmission: `bytes` serialized over
  /// [start, end) (from the transport's ack feedback).
  void add_transmission(double bytes, util::SimTime start, util::SimTime end);

  /// Capacity estimate at time `now`, bytes/second.
  [[nodiscard]] double estimate(util::SimTime now) const;

  /// estimate() with the safety factor applied.
  [[nodiscard]] double target_bytes_per_sec(util::SimTime now) const {
    return estimate(now) * kSafety;
  }

  void reset() { samples_.clear(); }

 private:
  struct Sample {
    double bytes;
    util::SimTime start;
    util::SimTime end;
  };

  std::deque<Sample> samples_;
};

/// The agent side of the uplink, shared by every scheme: the radio, the
/// bandwidth estimator fed by its delivered uploads, and the capture rate
/// that turns the estimated rate into a per-frame byte budget.
class AgentUplink {
 public:
  AgentUplink(std::shared_ptr<net::Uplink> link, double fps)
      : link_(std::move(link)), fps_(fps) {}

  /// Bytes one frame may spend: the safety-scaled estimate over one frame
  /// interval, at least 1.
  [[nodiscard]] double frame_budget(util::SimTime now) const;

  [[nodiscard]] double target_bytes_per_sec(util::SimTime now) const {
    return estimator_.target_bytes_per_sec(now);
  }
  [[nodiscard]] double fps() const { return fps_; }

  /// Uploads `bytes` ready at `ready` (head-of-line timeout applies) and,
  /// when delivered, feeds the transmission to the estimator. `trace`
  /// ties the upload to a frame's ledger entry.
  net::TransmitResult send(std::size_t bytes, util::SimTime ready,
                           const obs::FrameTraceContext* trace = nullptr);

  [[nodiscard]] net::Uplink& link() { return *link_; }

 private:
  std::shared_ptr<net::Uplink> link_;
  BandwidthEstimator estimator_;
  double fps_;
};

}  // namespace dive::core
