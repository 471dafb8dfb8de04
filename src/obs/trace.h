// Low-overhead span tracer with a Chrome trace-event JSON exporter, so a
// run opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Every span carries a dual timestamp:
//   - sim time: the simulated clock the repo's latency model runs on.
//     Orchestrating code anchors it per frame via set_sim_now(). A
//     frame's modelled stage intervals (encode, uplink, admission,
//     batching, inference, result) are recorded once, in the FrameLedger,
//     and the kSim export derives their spans from it
//     (FrameLedger::trace_events); span_at() is left for sim intervals
//     the ledger has no stage for.
//   - wall time: captured automatically by ScopedSpan (steady_clock) for
//     real host profiling of the compute stages.
//
// Export clocks: TraceClock::kSim lays spans (plus the ledger's derived
// stage spans) out on the simulated timeline and omits all wall-clock
// data — for a fixed seed the exported bytes are identical across runs
// and encoder thread counts (product instrumentation records spans from
// the orchestrating thread onto fixed logical tracks). TraceClock::kWall
// lays out the same spans by host time, without sim-only events; those
// bytes naturally differ run to run.
//
// Flow events: spans tagged with a FrameTraceContext flow id are linked
// across tracks by Chrome flow events ("s"/"t"/"f") in the export, so
// Perfetto draws arrows following one frame through encode -> uplink ->
// admission -> batch -> inference. Derived stage spans carry the frame's
// flow id too, so one chain runs through both sources. Flow ids are
// deterministic mint sequences, so the kSim export stays byte-identical
// across thread counts.
//
// Overhead: when tracing is disabled (the default) a span is one relaxed
// atomic load; compiling with DIVE_OBS_DISABLED removes the macro call
// sites entirely (see obs/obs.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/frame_context.h"
#include "util/sim_clock.h"

namespace dive::obs {

/// Logical tracks ("tid" in the exported trace). Fixed ids keep the
/// export independent of thread scheduling.
inline constexpr std::uint32_t kTrackAgent = 0;
inline constexpr std::uint32_t kTrackCodec = 1;
inline constexpr std::uint32_t kTrackNet = 2;
/// Per-session tracks: kTrackSessionBase + session_id.
inline constexpr std::uint32_t kTrackSessionBase = 16;

enum class TraceClock { kSim, kWall };

class FrameLedger;

struct TraceEvent {
  std::string name;
  std::uint32_t track = kTrackAgent;
  util::SimTime sim_begin = 0;
  util::SimTime sim_end = 0;
  std::uint64_t wall_begin_ns = 0;  ///< 0 for sim-only span_at events
  std::uint64_t wall_end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing ScopedSpan, or -1
  bool open = false;         ///< ScopedSpan not yet ended
  std::uint64_t flow = 0;    ///< frame flow id (FrameTraceContext), 0 = none
  std::vector<std::pair<std::string, long long>> args;
};

class Tracer {
 public:
  /// Disabled by default: begin_span/span_at/instant become a single
  /// relaxed atomic load.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Sim-time anchor for subsequently opened ScopedSpans; the frame loop
  /// sets it to the capture time before running the pipeline.
  void set_sim_now(util::SimTime t) {
    sim_now_.store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] util::SimTime sim_now() const {
    return sim_now_.load(std::memory_order_relaxed);
  }

  /// Record a completed span over an explicit simulated interval. A
  /// non-zero `flow` ties the span into a frame's cross-track flow
  /// (pass FrameTraceContext::flow_id()).
  void span_at(const std::string& name, std::uint32_t track,
               util::SimTime begin, util::SimTime end,
               std::vector<std::pair<std::string, long long>> args = {},
               std::uint64_t flow = 0);

  /// Zero-duration marker at a simulated instant.
  void instant(const std::string& name, std::uint32_t track, util::SimTime at,
               std::vector<std::pair<std::string, long long>> args = {},
               std::uint64_t flow = 0);

  /// ScopedSpan plumbing: returns the event index, or -1 when disabled.
  std::int64_t begin_span(const char* name, std::uint32_t track);
  void span_arg(std::int64_t index, const char* key, long long value);
  void span_flow(std::int64_t index, std::uint64_t flow);
  void end_span(std::int64_t index);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  void clear();

  /// Chrome trace-event JSON ("traceEvents" array of complete events plus
  /// track-name metadata). See TraceClock above for determinism. With a
  /// `ledger`, the kSim export also lays out its derived stage spans;
  /// the kWall export never does (they carry no wall data).
  [[nodiscard]] std::string to_chrome_json(
      TraceClock clock = TraceClock::kSim,
      const FrameLedger* ledger = nullptr) const;
  /// Writes to_chrome_json to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path,
                         TraceClock clock = TraceClock::kSim,
                         const FrameLedger* ledger = nullptr) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<util::SimTime> sim_now_{0};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  /// Open-span stack per thread; ScopedSpan nesting is LIFO per thread.
  std::map<std::thread::id, std::vector<std::int64_t>> open_stacks_;
};

/// RAII wall-clocked span anchored at the tracer's current sim time.
/// A default-constructed or null-tracer span is inert; all methods are
/// no-ops when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, const char* name,
             std::uint32_t track = kTrackAgent) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer_ = tracer;
      index_ = tracer->begin_span(name, track);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr && index_ >= 0) tracer_->end_span(index_);
  }

  void arg(const char* key, long long value) {
    if (tracer_ != nullptr && index_ >= 0)
      tracer_->span_arg(index_, key, value);
  }

  /// Tags the span with a frame's flow id plus session/frame args so it
  /// joins the frame's cross-track flow in the export. No-op on inert
  /// spans or unminted contexts.
  void flow(const FrameTraceContext& ctx) {
    if (tracer_ == nullptr || index_ < 0 || !ctx.valid()) return;
    tracer_->span_flow(index_, ctx.flow_id());
    tracer_->span_arg(index_, "session", static_cast<long long>(ctx.session_id));
    tracer_->span_arg(index_, "frame", static_cast<long long>(ctx.frame_index));
  }

 private:
  Tracer* tracer_ = nullptr;
  std::int64_t index_ = -1;
};

}  // namespace dive::obs
