#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dive::serve {

namespace {

/// Incremental inference cost of each extra frame in a batch, as a
/// fraction of a single-frame pass.
constexpr double kBatchMarginal = 0.35;

/// Queue order: earliest arrival first, ties broken by session then frame
/// so the schedule never depends on submission interleaving.
bool before(const ScheduledJob& a, const ScheduledJob& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  if (a.session_id != b.session_id) return a.session_id < b.session_id;
  return a.frame_index < b.frame_index;
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig config, util::SimTime decode_latency,
                     util::SimTime inference_latency)
    : config_(config),
      decode_latency_(decode_latency),
      inference_latency_(inference_latency) {
  if (config_.workers < 1)
    throw std::invalid_argument("Scheduler: workers must be >= 1");
  if (config_.max_batch < 1)
    throw std::invalid_argument("Scheduler: max_batch must be >= 1");
  free_at_.assign(static_cast<std::size_t>(config_.workers), 0);
}

void Scheduler::submit(ScheduledJob job) {
  const auto pos =
      std::lower_bound(pending_.begin(), pending_.end(), job, before);
  pending_.insert(pos, std::move(job));
}

int Scheduler::earliest_worker() const {
  int best = 0;
  for (int w = 1; w < config_.workers; ++w) {
    if (free_at_[static_cast<std::size_t>(w)] <
        free_at_[static_cast<std::size_t>(best)]) {
      best = w;
    }
  }
  return best;
}

util::SimTime Scheduler::batch_service_time_for(
    const std::vector<ScheduledJob>& jobs) const {
  if (jobs.empty()) return 0;
  double max_work = 0.0;
  double total_work = 0.0;
  for (const ScheduledJob& job : jobs) {
    max_work = std::max(max_work, job.work);
    total_work += job.work;
  }
  // max_work leads a full (scaled) pass; the rest amortizes at its own
  // fraction. All-1 work reduces integer-exactly to the full-frame
  // formula n * decode + L + llround((n - 1) * marginal * L):
  // llround(1.0 * L) == L and total - max == n - 1 exactly.
  const auto lead = static_cast<util::SimTime>(
      std::llround(max_work * static_cast<double>(inference_latency_)));
  const auto amortized = static_cast<util::SimTime>(std::llround(
      (total_work - max_work) * kBatchMarginal *
      static_cast<double>(inference_latency_)));
  return static_cast<util::SimTime>(jobs.size()) * decode_latency_ + lead +
         amortized;
}

std::vector<Batch> Scheduler::run_until(util::SimTime now) {
  std::vector<Batch> out;
  while (!pending_.empty()) {
    const int w = earliest_worker();
    const ScheduledJob& head = pending_.front();
    const util::SimTime open =
        std::max(free_at_[static_cast<std::size_t>(w)], head.arrival);
    const util::SimTime close =
        config_.max_batch > 1 ? open + config_.batch_window : open;

    // Jobs already known to fall inside the window, in queue order.
    std::size_t take = 0;
    while (take < pending_.size() && take < config_.max_batch &&
           pending_[take].arrival <= close) {
      ++take;
    }
    const bool full = take == config_.max_batch;
    const util::SimTime last_arrival = pending_[take - 1].arrival;

    util::SimTime start = 0;
    if (full) {
      // The batch filled; it can only be finalized once no future
      // submission (strictly after `now`) could displace a member.
      if (last_arrival > now) break;
      start = std::max(open, last_arrival);
    } else {
      // The window must have verifiably expired before dispatching a
      // partial batch: stragglers arriving <= close could still join.
      if (close > now) break;
      start = close;
    }

    Batch batch;
    batch.worker = w;
    batch.open = open;
    batch.start = start;
    batch.jobs.assign(pending_.begin(),
                      pending_.begin() + static_cast<std::ptrdiff_t>(take));
    batch.done = start + batch_service_time_for(batch.jobs);
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
    free_at_[static_cast<std::size_t>(w)] = batch.done;
    out.push_back(std::move(batch));
  }
  return out;
}

std::vector<Batch> Scheduler::drain() {
  return run_until(std::numeric_limits<util::SimTime>::max());
}

util::SimTime Scheduler::estimated_completion(util::SimTime arrival) const {
  // Backlog ahead of the job, serviced at the amortized per-frame rate
  // spread across the pool, plus the batch window a light-load partial
  // batch waits out. A deterministic heuristic, not an exact simulation:
  // admission only needs to know roughly when the frame would finish.
  const util::SimTime base =
      *std::min_element(free_at_.begin(), free_at_.end());
  const double n = static_cast<double>(config_.max_batch);
  const double amortized_infer =
      static_cast<double>(inference_latency_) *
      (1.0 + (n - 1.0) * kBatchMarginal) / n;
  const double per_frame =
      static_cast<double>(decode_latency_) + amortized_infer;
  const auto backlog = static_cast<util::SimTime>(std::llround(
      static_cast<double>(pending_.size()) * per_frame /
      static_cast<double>(config_.workers)));
  const util::SimTime window =
      config_.max_batch > 1 ? config_.batch_window : 0;
  const util::SimTime start = std::max(arrival, base + backlog) + window;
  return start + decode_latency_ + inference_latency_;
}

}  // namespace dive::serve
