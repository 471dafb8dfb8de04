#include "core/bandwidth_estimator.h"

#include <algorithm>

namespace dive::core {

void BandwidthEstimator::add_transmission(double bytes, util::SimTime start,
                                          util::SimTime end) {
  if (bytes <= 0.0 || end <= start) return;
  samples_.push_back({bytes, start, end});
  // Retire samples with no overlap left against the window ending at the
  // newest ack. A sample that merely straddles the cutoff stays: its
  // in-window share still carries information and estimate() prorates it.
  const util::SimTime cutoff = end - kWindow;
  while (!samples_.empty() && samples_.front().end <= cutoff)
    samples_.pop_front();
}

double BandwidthEstimator::estimate(util::SimTime now) const {
  const util::SimTime cutoff = now - kWindow;
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& s : samples_) {
    const double duration = util::to_seconds(s.end - s.start);
    if (duration <= 0.0) continue;
    // Prorate by the overlap with [now - window, now]: a burst straddling
    // the cutoff contributes only its in-window share of bytes and time,
    // so one stale long transfer cannot dominate the post-outage average.
    const util::SimTime ov_start = std::max(s.start, cutoff);
    const util::SimTime ov_end = std::min(s.end, now);
    if (ov_end <= ov_start) continue;
    const double overlap = util::to_seconds(ov_end - ov_start);
    const double rate = s.bytes / duration;
    weighted += rate * overlap;
    weight += overlap;
  }
  if (weight <= 0.0) return kPriorBytesPerSec;
  return weighted / weight;
}

double AgentUplink::frame_budget(util::SimTime now) const {
  return std::max(1.0, estimator_.target_bytes_per_sec(now) / fps_);
}

net::TransmitResult AgentUplink::send(std::size_t bytes, util::SimTime ready,
                                      const obs::FrameTraceContext* trace) {
  const net::TransmitResult tx =
      link_->transmit_with_timeout(static_cast<double>(bytes), ready, trace);
  if (tx.delivered)
    estimator_.add_transmission(static_cast<double>(bytes), tx.started,
                                tx.sent_complete);
  return tx;
}

}  // namespace dive::core
