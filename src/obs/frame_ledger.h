// Per-frame latency ledger: the closing loop of the causal tracing
// pipeline. The harness mints a FrameTraceContext per captured frame
// (global capture order -> monotone sequence), each pipeline stage
// records its simulated interval against that context, and the terminal
// stage records an outcome. The ledger then answers the questions spans
// alone cannot:
//
//   - stage-by-stage latency breakdown per frame (encode / sidecar /
//     uplink queue / transmit / propagation / admission wait / batch
//     wait / inference / result), summing to the frame's end-to-end
//     latency, so >= 95% of every frame's budget is attributed by name;
//   - per-session and aggregate per-stage percentiles;
//   - a deadline-miss autopsy: every dropped-or-late frame names its
//     dominant stage (today drops are counted but causeless).
//
// The ledger is the only record of a frame's sim-time stages: the kSim
// Chrome export derives their trace spans from it (trace_events), so no
// pipeline stage writes a span for an interval it records here.
//
// Determinism: contexts are minted on the orchestrating thread in
// capture order and all stage times are simulated, so every export
// (JSON, tables) is byte-identical across encoder thread counts. All
// methods are mutex-guarded; recording from scheduler callbacks is safe.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/frame_context.h"
#include "obs/trace.h"
#include "util/sim_clock.h"
#include "util/table.h"

namespace dive::obs {

class MetricsRegistry;

/// Pipeline stages in causal order. A frame visits each at most once.
enum class FrameStage : std::uint8_t {
  kEncode = 0,      ///< capture -> bitstream ready (analysis + encode)
  kSidecar,         ///< RoI metadata serialization (zero sim latency today)
  kUplinkQueue,     ///< bitstream ready -> serialization starts
  kTransmit,        ///< uplink serialization (bytes / bandwidth)
  kPropagation,     ///< last byte sent -> arrival at edge
  kAdmissionWait,   ///< arrival -> batch window opens
  kBatchWait,       ///< batch window open -> batch dispatch
  kInference,       ///< batch dispatch -> inference done
  kResult,          ///< inference done -> result back at the agent
};
inline constexpr std::size_t kFrameStageCount = 9;

[[nodiscard]] const char* to_string(FrameStage stage);

enum class FrameOutcome : std::uint8_t {
  kPending = 0,      ///< no terminal event recorded (yet)
  kCompleted,        ///< result returned within deadline (or no deadline)
  kCompletedLate,    ///< result returned after the deadline
  kDroppedUplink,    ///< uplink gave up (outage / head-of-line timeout)
  kDroppedQueue,     ///< admission rejected: session queue full
  kDroppedDeadline,  ///< admission rejected: predicted completion too late
};

[[nodiscard]] const char* to_string(FrameOutcome outcome);
[[nodiscard]] bool is_drop(FrameOutcome outcome);

struct FrameRecord {
  FrameTraceContext ctx;
  util::SimTime capture = 0;
  util::SimTime deadline = 0;  ///< absolute; 0 = no deadline
  util::SimTime finished = 0;  ///< result at agent, or drop instant
  FrameOutcome outcome = FrameOutcome::kPending;

  struct StageSpan {
    util::SimTime begin = 0;
    util::SimTime end = 0;
    bool set = false;
  };
  std::array<StageSpan, kFrameStageCount> stages;

  [[nodiscard]] const StageSpan& stage(FrameStage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double stage_ms(FrameStage s) const;
  /// finished - capture (0 until a terminal outcome is recorded).
  [[nodiscard]] double e2e_ms() const;
  /// Sum of all recorded stage durations.
  [[nodiscard]] double attributed_ms() const;
  /// Longest recorded stage; ties break toward the earlier stage.
  /// Meaningful once at least one stage is recorded (kEncode otherwise).
  [[nodiscard]] FrameStage dominant_stage() const;
};

class FrameLedger {
 public:
  /// Mints the next context. Call in deterministic (capture) order on the
  /// orchestrating thread; `deadline` is absolute sim time, 0 = none.
  FrameTraceContext begin_frame(std::uint32_t session_id,
                                std::uint64_t frame_index,
                                util::SimTime capture,
                                util::SimTime deadline = 0);

  /// Records stage [begin, end] for the frame. Unminted contexts and
  /// unknown sequences are ignored; end is clamped to >= begin.
  void stage(const FrameTraceContext& ctx, FrameStage stage,
             util::SimTime begin, util::SimTime end);

  /// Terminal event. kCompleted past a configured deadline is recorded
  /// as kCompletedLate automatically.
  void outcome(const FrameTraceContext& ctx, FrameOutcome outcome,
               util::SimTime at);

  [[nodiscard]] std::size_t size() const;
  /// All records in mint (capture) order.
  [[nodiscard]] std::vector<FrameRecord> records() const;

  /// One entry per dropped / late / still-pending frame: which stage ate
  /// the budget.
  struct Autopsy {
    FrameTraceContext ctx;
    FrameOutcome outcome = FrameOutcome::kPending;
    FrameStage dominant = FrameStage::kEncode;
    double dominant_ms = 0.0;
    double elapsed_ms = 0.0;  ///< capture -> terminal event (or last stage)
  };
  [[nodiscard]] std::vector<Autopsy> autopsies() const;

  /// Aggregate per-stage latency: count / mean / p50 / p90 / p99 and
  /// share of total attributed time.
  [[nodiscard]] util::TextTable stage_table() const;
  /// Per-session e2e percentiles, outcome counts, and worst stage.
  [[nodiscard]] util::TextTable session_table() const;
  /// Deadline-miss autopsy rollup: outcome x dominant stage histogram.
  [[nodiscard]] util::TextTable autopsy_table() const;

  /// Full per-frame dump for tools/trace_report.py (schema 1);
  /// deterministic bytes (sim integers, mint order).
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;

  /// The sim-clock trace view of every record, in mint order: one span
  /// per set stage and one instant per drop, each carrying the frame's
  /// flow id and {session, frame} args. Tracer::to_chrome_json(kSim,
  /// ledger) lays these out beside the tracer's own events.
  [[nodiscard]] std::vector<TraceEvent> trace_events() const;

  /// Aggregates into the registry under obs.ledger.* (idempotent).
  void publish(MetricsRegistry& registry) const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<FrameRecord> records_;                          // mint order
  std::map<std::uint64_t, std::size_t> by_sequence_;          // seq -> index
  std::uint64_t next_sequence_ = 1;
};

}  // namespace dive::obs
