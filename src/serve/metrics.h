// Serving-layer observability: per-session and aggregate counters and
// distributions, exported through the existing util::stats / util::table
// facilities so bench output matches the rest of the repo.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/stats.h"
#include "util/table.h"

namespace dive::serve {

/// Counters and distributions for one session (also used as the
/// aggregate, where every session's samples are merged).
struct SessionCounters {
  long submitted = 0;         ///< frames that reached the edge
  long admitted = 0;
  long dropped_queue = 0;     ///< admission: per-session queue full
  long dropped_deadline = 0;  ///< admission: predicted to miss deadline
  long dropped_uplink = 0;    ///< agent side: head-of-line timeout
  long completed = 0;         ///< results delivered back to the agent

  // RoI gating (frames that carried sidecar metadata; zero when the RoI
  // lane is off, in which case none of these appear in published output).
  long gated = 0;             ///< frames inferred through tile gating
  long full_inference = 0;    ///< sidecar frames that still ran full-frame
  long fresh_boxes = 0;       ///< detector outputs on gated frames
  long propagated_boxes = 0;  ///< background boxes carried by MV shift

  util::RunningStats queue_depth;  ///< session queue depth at admission
  util::RunningStats batch_size;   ///< batch each frame was served in
  util::SampleSet wait_ms;         ///< edge arrival -> inference start
  util::SampleSet e2e_ms;          ///< capture -> result at the agent
  util::RunningStats gate_work;    ///< scheduler work fraction (RoI frames)
  util::RunningStats gate_pixel_fraction;  ///< gated frames only

  [[nodiscard]] long dropped() const {
    return dropped_queue + dropped_deadline;
  }
  void merge(const SessionCounters& other);
};

class ServeMetrics {
 public:
  /// Per-session counters, growing the table on first touch.
  SessionCounters& session(std::uint32_t id);
  [[nodiscard]] const SessionCounters& session(std::uint32_t id) const;

  /// Everything merged across sessions.
  [[nodiscard]] SessionCounters aggregate() const;

  /// One row per session: submitted/admitted/drops/completed, mean queue
  /// depth, mean wait, mean + p95 end-to-end latency.
  [[nodiscard]] util::TextTable session_table() const;

  /// Single-row node summary of the aggregate.
  [[nodiscard]] util::TextTable summary_table() const;

  /// Publishes everything into a unified metrics registry under
  /// "serve.*": aggregate counters (serve.submitted, serve.admitted,
  /// serve.dropped_*, serve.completed), latency/batch distributions
  /// (serve.wait_ms, serve.e2e_ms, serve.batch_size, serve.queue_depth),
  /// and cross-session spread distributions (serve.per_session.*, one
  /// sample per session). Publication is idempotent — counters are `set`
  /// and distributions `assign`ed — so calling it after every drain
  /// leaves the registry equal to the latest state, and the serving
  /// layer shares one export surface with the agent/codec/net metrics.
  void publish(obs::MetricsRegistry& registry) const;

 private:
  std::vector<SessionCounters> per_session_;  ///< indexed by session id
};

}  // namespace dive::serve
