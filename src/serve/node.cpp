#include "serve/node.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dive::serve {

ServeNode::ServeNode(ServeNodeConfig config)
    : config_(config),
      admission_(config.admission),
      scheduler_(config.scheduler, config.server.decode_latency,
                 config.server.inference_latency) {}

Session& ServeNode::open_session(std::shared_ptr<net::Uplink> uplink) {
  const auto id = static_cast<std::uint32_t>(sessions_.size());
  sessions_.push_back(std::make_unique<Session>(
      id, config_.session, std::move(uplink), config_.server, config_.seed));
  metrics_.session(id);  // materialize the row even if nothing arrives
  return *sessions_.back();
}

Session& ServeNode::session(std::uint32_t id) {
  if (id >= sessions_.size())
    throw std::out_of_range("ServeNode: unknown session");
  return *sessions_[id];
}

AdmissionVerdict ServeNode::submit(FrameJob job) {
  Session& s = session(job.session_id);
  SessionCounters& counters = metrics_.session(job.session_id);
  ++counters.submitted;

  const util::SimTime predicted_done =
      scheduler_.estimated_completion(job.arrival);
  const AdmissionVerdict verdict = admission_.decide(
      s, job.capture_time, predicted_done, edge::kDownlinkDelay);
  switch (verdict) {
    case AdmissionVerdict::kQueueFull:
      ++counters.dropped_queue;
      if (obs_ != nullptr)
        obs_->ledger.outcome(job.trace, obs::FrameOutcome::kDroppedQueue,
                             job.arrival);
      return verdict;
    case AdmissionVerdict::kDeadline:
      ++counters.dropped_deadline;
      if (obs_ != nullptr)
        obs_->ledger.outcome(job.trace, obs::FrameOutcome::kDroppedDeadline,
                             job.arrival);
      return verdict;
    case AdmissionVerdict::kAdmit: break;
  }

  ++counters.admitted;
  counters.queue_depth.add(static_cast<double>(s.queue_depth()));
  if (obs_ != nullptr) {
    obs_->tracer.instant("serve.queued",
                         obs::kTrackSessionBase + job.session_id, job.arrival,
                         {{"frame", static_cast<long long>(job.frame_index)},
                          {"depth", static_cast<long long>(s.queue_depth())}},
                         job.trace.flow_id());
  }
  s.on_admitted();

  // RoI lane: parse the sidecar and plan the gate now, in admission order
  // (per-session frame order), so the scheduler can price the job and the
  // gate's refresh cadence never depends on dispatch interleaving. An
  // unparsable sidecar degrades to a full-frame plan.
  PendingPayload pending;
  pending.data = std::move(job.data);
  if (!job.roi_metadata.empty()) {
    pending.roi = true;
    pending.meta = roi::RoiMetadata::parse(job.roi_metadata);
    const roi::RoiMetadata* m = pending.meta ? &*pending.meta : nullptr;
    pending.plan = s.gate().plan(m, m != nullptr ? m->width() : 0,
                                 m != nullptr ? m->height() : 0);
  }
  const double work = pending.roi ? pending.plan.work : 1.0;
  payloads_.emplace(std::make_pair(job.session_id, job.frame_index),
                    std::move(pending));
  scheduler_.submit({job.session_id, job.frame_index, job.capture_time,
                     job.arrival, work, job.trace});
  return verdict;
}

std::vector<JobResult> ServeNode::realize(std::vector<Batch> batches) {
  std::vector<JobResult> results;
  for (const Batch& batch : batches) {
    for (const ScheduledJob& job : batch.jobs) {
      Session& s = session(job.session_id);
      s.on_dispatched();

      const auto key = std::make_pair(job.session_id, job.frame_index);
      const auto payload = payloads_.find(key);
      if (payload == payloads_.end())
        throw std::logic_error("ServeNode: dispatched job without payload");

      JobResult r;
      r.session_id = job.session_id;
      r.frame_index = job.frame_index;
      r.capture_time = job.capture_time;
      r.arrival = job.arrival;
      r.infer_start = batch.start;
      r.infer_done = batch.done;
      r.batch_size = batch.jobs.size();
      r.work = job.work;
      // Per-session jitter stream, indexed by the agent's frame number:
      // invariant under batching and other sessions' load.
      r.result_at_agent = batch.done +
                          s.server().inference_jitter(job.frame_index) +
                          edge::kDownlinkDelay;
      SessionCounters& counters = metrics_.session(job.session_id);
      PendingPayload& pp = payload->second;
      if (pp.roi) {
        // Per-session dispatch order equals frame order (the scheduler
        // keeps arrivals sorted and per-session arrivals are monotonic),
        // so the gate's held-box state evolves identically for every
        // worker count and batch interleaving.
        const roi::RoiMetadata* m = pp.meta ? &*pp.meta : nullptr;
        roi::GatedDetections gated = s.gate().run(pp.data, m, pp.plan);
        r.gated = gated.gated;
        r.detections = std::move(gated.detections);
        if (gated.gated) {
          ++counters.gated;
          counters.fresh_boxes += gated.fresh;
          counters.propagated_boxes += gated.propagated;
          counters.gate_pixel_fraction.add(gated.pixel_fraction);
        } else {
          ++counters.full_inference;
        }
        counters.gate_work.add(pp.plan.work);
      } else {
        r.detections = s.server().decode_and_detect(pp.data);
      }
      payloads_.erase(payload);

      ++counters.completed;
      counters.batch_size.add(static_cast<double>(batch.jobs.size()));
      counters.wait_ms.add(util::to_millis(batch.start - job.arrival));
      counters.e2e_ms.add(
          util::to_millis(r.result_at_agent - job.capture_time));
      if (obs_ != nullptr) {
        // Wait decomposition: [arrival, open) waited for a worker+window
        // (admission wait), [open', start) for the batch to form. open
        // can precede this member's arrival (it joined an already-open
        // window), so the boundary clamps to arrival.
        const util::SimTime open_at = std::max(job.arrival, batch.open);
        auto& ledger = obs_->ledger;
        ledger.stage(job.trace, obs::FrameStage::kAdmissionWait, job.arrival,
                     open_at);
        ledger.stage(job.trace, obs::FrameStage::kBatchWait, open_at,
                     batch.start);
        ledger.stage(job.trace, obs::FrameStage::kInference, batch.start,
                     batch.done);
        ledger.stage(job.trace, obs::FrameStage::kResult, batch.done,
                     r.result_at_agent);
        ledger.outcome(job.trace, obs::FrameOutcome::kCompleted,
                       r.result_at_agent);
      }
      results.push_back(std::move(r));
    }
  }
  std::sort(results.begin(), results.end(),
            [](const JobResult& a, const JobResult& b) {
              if (a.result_at_agent != b.result_at_agent)
                return a.result_at_agent < b.result_at_agent;
              if (a.session_id != b.session_id)
                return a.session_id < b.session_id;
              return a.frame_index < b.frame_index;
            });
  return results;
}

std::vector<JobResult> ServeNode::run_until(util::SimTime now) {
  return realize(scheduler_.run_until(now));
}

std::vector<JobResult> ServeNode::drain() {
  std::vector<JobResult> results = realize(scheduler_.drain());
  if (obs_ != nullptr) metrics_.publish(obs_->metrics);
  return results;
}

}  // namespace dive::serve
