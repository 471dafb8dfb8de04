// Simulated FIFO uplink from a mobile agent to the edge server.
//
// Serialization follows the bandwidth trace exactly; arrival adds a fixed
// propagation delay. The transmit-queue head-of-line timeout implements
// the paper's link-outage detector (Sec. III-E): if a frame sits at the
// queue head longer than the timeout, the agent gives up on it and falls
// back to motion-vector-based offline tracking.
#pragma once

#include <memory>
#include <optional>

#include "net/bandwidth.h"
#include "obs/frame_context.h"
#include "util/sim_clock.h"

namespace dive::obs {
struct ObsContext;
}  // namespace dive::obs

namespace dive::net {

struct UplinkConfig {
  util::SimTime propagation_delay = util::from_millis(10.0);
  /// Head-of-line timeout used by transmit_with_timeout.
  util::SimTime head_timeout = util::from_millis(400.0);
};

/// Result of a transmission attempt.
struct TransmitResult {
  bool delivered = false;
  util::SimTime started = 0;        ///< first byte entered the radio
  util::SimTime sent_complete = 0;  ///< last byte left the radio
  util::SimTime arrival = 0;        ///< last byte reached the server
  /// When not delivered: the time at which the agent detected the outage
  /// (head-of-line timer expiry).
  util::SimTime gave_up_at = 0;
};

class Uplink {
 public:
  Uplink(std::shared_ptr<const BandwidthTrace> trace, UplinkConfig config);

  /// Transmits `bytes` enqueued at `enqueue_time`; the link serializes
  /// after any earlier traffic completes. If the head-of-line timer
  /// (config.head_timeout) expires first, the frame is dropped and the
  /// link is left idle (real stacks flush the socket on outage
  /// detection). `trace` (optional) ties the transmission to a frame:
  /// its queue/serialize/propagation intervals are recorded into the
  /// context's FrameLedger.
  TransmitResult transmit_with_timeout(
      double bytes, util::SimTime enqueue_time,
      const obs::FrameTraceContext* trace = nullptr);

  [[nodiscard]] util::SimTime busy_until() const { return busy_until_; }
  [[nodiscard]] const UplinkConfig& config() const { return config_; }

  /// Attaches an observability context (non-owning, null detaches):
  /// "net.*" counters/distributions and the frame's uplink stages in the
  /// ledger, all derived from simulated time (deterministic).
  void set_obs(obs::ObsContext* obs) { obs_ = obs; }

 private:
  TransmitResult record(const TransmitResult& r, double bytes,
                        util::SimTime enqueue_time,
                        const obs::FrameTraceContext* trace);

  std::shared_ptr<const BandwidthTrace> trace_;
  UplinkConfig config_;
  obs::ObsContext* obs_ = nullptr;
  util::SimTime busy_until_ = 0;
};

}  // namespace dive::net
