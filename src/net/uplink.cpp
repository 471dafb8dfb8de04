#include "net/uplink.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace dive::net {

Uplink::Uplink(std::shared_ptr<const BandwidthTrace> trace,
               UplinkConfig config)
    : trace_(std::move(trace)), config_(config) {
  if (trace_ == nullptr) throw std::invalid_argument("Uplink: null trace");
}

/// Metric and ledger bookkeeping of one transmission; everything is
/// computed from simulated timestamps, so observation is deterministic.
TransmitResult Uplink::record(const TransmitResult& r, double bytes,
                              util::SimTime enqueue_time,
                              const obs::FrameTraceContext* trace) {
  if (obs_ == nullptr) return r;
  auto& m = obs_->metrics;
  m.counter("net.transmits").add();
  m.distribution("net.queue_ms", "ms")
      .add(util::to_millis(r.started - enqueue_time));
  if (r.delivered) {
    m.counter("net.delivered").add();
    m.counter("net.bytes_delivered", "bytes")
        .add(static_cast<std::int64_t>(bytes));
    m.distribution("net.transmit_ms", "ms")
        .add(util::to_millis(r.sent_complete - r.started));
  } else {
    m.counter("net.outages").add();
  }
  if (trace != nullptr && trace->valid()) {
    auto& ledger = obs_->ledger;
    ledger.stage(*trace, obs::FrameStage::kUplinkQueue, enqueue_time,
                 r.started);
    ledger.stage(*trace, obs::FrameStage::kTransmit, r.started,
                 r.delivered ? r.sent_complete : r.gave_up_at);
    if (r.delivered)
      ledger.stage(*trace, obs::FrameStage::kPropagation, r.sent_complete,
                   r.arrival);
  }
  return r;
}

TransmitResult Uplink::transmit_with_timeout(
    double bytes, util::SimTime enqueue_time,
    const obs::FrameTraceContext* trace) {
  const util::SimTime head_time = std::max(enqueue_time, busy_until_);
  const util::SimTime deadline = head_time + config_.head_timeout;
  const util::SimTime complete =
      trace_->time_to_send(head_time, bytes, deadline + 1);
  if (complete > deadline) {
    TransmitResult r;
    r.delivered = false;
    r.started = head_time;
    r.gave_up_at = deadline;
    // Dropped frame: the radio is idle again from the moment we gave up.
    busy_until_ = std::max(busy_until_, deadline);
    return record(r, bytes, enqueue_time, trace);
  }
  busy_until_ = complete;
  return record({true, head_time, complete,
                 complete + config_.propagation_delay, 0},
                bytes, enqueue_time, trace);
}

}  // namespace dive::net
