// Deterministic multi-session inference scheduler: multiplexes admitted
// frames onto a fixed pool of inference workers, optionally forming
// batches to amortize the per-pass cost of the detector DNN.
//
// Timing model. A batch of n frames occupies one worker for
//     n * decode_latency + inference_latency * (1 + (n - 1) * batch_marginal)
// i.e. decode stays per-frame while inference amortizes: batch_marginal
// (0.35, scheduler.cpp) is the incremental cost of each extra frame
// relative to a full pass (1.0 = no amortization, GPU-style batching sits
// well below 1).
//
// RoI-gated work. A job may carry a `work` fraction < 1 (the gated pixel
// fraction from EdgeServer::plan): the batch then costs
//     n * decode_latency + inference_latency * (max_work
//                          + batch_marginal * (total_work - max_work))
// — the heaviest member leads the pass and every other member amortizes
// at its own fraction. With all work == 1 this reduces, integer-exactly,
// to the formula above, so schedules without gating are byte-identical
// to the pre-RoI scheduler. The cost depends only on the work multiset,
// never on member order, preserving determinism.
//
// Batch formation. Pending jobs are kept in (arrival, session, frame)
// order. The batch window opens when the earliest pending job meets the
// earliest free worker; it closes `batch_window` later or as soon as
// `max_batch` jobs have arrived, whichever is first. The scheduler is
// event-driven over simulated time and only finalizes a batch once no
// future submission could still join or reorder it, which makes the
// schedule a pure function of the submitted jobs — independent of how the
// driving loop slices run_until() calls.
//
// Callers must submit every job with arrival <= t before calling
// run_until(t), and future submissions must arrive strictly after t (the
// harness guarantees both: frames are processed in capture order and
// arrival >= capture + encode latency > capture).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "obs/frame_context.h"
#include "util/sim_clock.h"

namespace dive::serve {

struct SchedulerConfig {
  int workers = 2;  ///< parallel inference lanes on the edge node
  /// Batching: largest batch one worker accepts (1 disables batching).
  std::size_t max_batch = 1;
  /// How long a worker may hold an open batch waiting for it to fill.
  util::SimTime batch_window = util::from_millis(4.0);
};

/// A frame admitted for inference (timing view — the payload stays with
/// the node, keeping the scheduler free of codec dependencies).
struct ScheduledJob {
  std::uint32_t session_id = 0;
  std::uint64_t frame_index = 0;  ///< per-session, assigned by the agent
  util::SimTime capture_time = 0;
  util::SimTime arrival = 0;  ///< last byte reached the edge
  /// Inference cost scale in (0, 1]: 1 = full-frame, < 1 = RoI-gated
  /// (edge::GatePlan::work, the floored gated pixel fraction).
  double work = 1.0;
  /// Causal identity minted at encode time; carried by value so wait/
  /// inference spans and the FrameLedger can attribute this job's
  /// latency. Plain data, never read by scheduling decisions.
  obs::FrameTraceContext trace{};
};

/// One dispatched batch: `jobs` in queue order, serviced on `worker`
/// during [start, done). `open` is when the batch window opened (the
/// earliest pending job met the earliest free worker): [arrival, open)
/// is a member's admission wait, [max(arrival, open), start) its batch
/// wait — the split the per-frame ledger reports.
struct Batch {
  std::vector<ScheduledJob> jobs;
  int worker = 0;
  util::SimTime open = 0;
  util::SimTime start = 0;
  util::SimTime done = 0;
};

class Scheduler {
 public:
  Scheduler(SchedulerConfig config, util::SimTime decode_latency,
            util::SimTime inference_latency);

  void submit(ScheduledJob job);

  /// Forms and dispatches every batch finalizable given that all arrivals
  /// <= now are known; returns them in dispatch order.
  std::vector<Batch> run_until(util::SimTime now);

  /// Flushes everything pending (end of the experiment).
  std::vector<Batch> drain();

  /// Admission hint: estimated completion (last byte of inference) for a
  /// job arriving at `arrival`, accounting for the current backlog spread
  /// across the pool at the amortized batch rate.
  [[nodiscard]] util::SimTime estimated_completion(util::SimTime arrival) const;

  /// Worker time for a concrete job set, honoring per-job work
  /// fractions (the RoI-gated formula above; with every work == 1 it is
  /// the full-frame batch formula).
  [[nodiscard]] util::SimTime batch_service_time_for(
      const std::vector<ScheduledJob>& jobs) const;

 private:
  [[nodiscard]] int earliest_worker() const;

  SchedulerConfig config_;
  util::SimTime decode_latency_;
  util::SimTime inference_latency_;
  std::deque<ScheduledJob> pending_;  ///< sorted by (arrival, session, frame)
  std::vector<util::SimTime> free_at_;
};

}  // namespace dive::serve
