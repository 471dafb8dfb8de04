#include "serve/admission.h"

namespace dive::serve {

const char* to_string(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmit: return "admit";
    case AdmissionVerdict::kQueueFull: return "queue-full";
    case AdmissionVerdict::kDeadline: return "deadline";
  }
  return "?";
}

AdmissionVerdict AdmissionController::decide(
    const Session& session, util::SimTime capture_time,
    util::SimTime predicted_done, util::SimTime downlink_delay) const {
  if (session.queue_depth() >= config_.max_queue)
    return AdmissionVerdict::kQueueFull;
  if (predicted_done + downlink_delay >
      capture_time + session.config().deadline) {
    return AdmissionVerdict::kDeadline;
  }
  return AdmissionVerdict::kAdmit;
}

}  // namespace dive::serve
