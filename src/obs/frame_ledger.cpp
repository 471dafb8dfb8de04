#include "obs/frame_ledger.h"

#include <algorithm>
#include <fstream>

#include "obs/metrics.h"
#include "util/stats.h"

namespace dive::obs {

namespace {

constexpr std::array<const char*, kFrameStageCount> kStageNames = {
    "encode",         "sidecar",    "uplink_queue",
    "transmit",       "propagation", "admission_wait",
    "batch_wait",     "inference",  "result",
};

/// The one mapping from a ledger stage to its sim-clock trace span
/// (DESIGN §10): named `<layer>.<stage>`, placed on the shared net track
/// or on the frame's session track.
struct StageTrace {
  const char* name;
  bool net_track;
};
constexpr std::array<StageTrace, kFrameStageCount> kStageTrace = {{
    {"agent.encode", false},
    {"agent.sidecar", false},
    {"net.uplink_queue", true},
    {"net.transmit", true},
    {"net.propagation", true},
    {"edge.admission_wait", false},
    {"edge.batch_wait", false},
    {"edge.inference", false},
    {"edge.result", false},
}};

/// Drop instants, named after the outcome in the layer that dropped the
/// frame; they sit on the session track at the drop time.
const char* drop_trace_name(FrameOutcome outcome) {
  switch (outcome) {
    case FrameOutcome::kDroppedUplink: return "net.dropped_uplink";
    case FrameOutcome::kDroppedQueue: return "edge.dropped_queue";
    case FrameOutcome::kDroppedDeadline: return "edge.dropped_deadline";
    default: return nullptr;
  }
}

}  // namespace

const char* to_string(FrameStage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

const char* to_string(FrameOutcome outcome) {
  switch (outcome) {
    case FrameOutcome::kPending: return "pending";
    case FrameOutcome::kCompleted: return "completed";
    case FrameOutcome::kCompletedLate: return "completed_late";
    case FrameOutcome::kDroppedUplink: return "dropped_uplink";
    case FrameOutcome::kDroppedQueue: return "dropped_queue";
    case FrameOutcome::kDroppedDeadline: return "dropped_deadline";
  }
  return "unknown";
}

bool is_drop(FrameOutcome outcome) {
  return outcome == FrameOutcome::kDroppedUplink ||
         outcome == FrameOutcome::kDroppedQueue ||
         outcome == FrameOutcome::kDroppedDeadline;
}

double FrameRecord::stage_ms(FrameStage s) const {
  const StageSpan& span = stage(s);
  return span.set ? util::to_millis(span.end - span.begin) : 0.0;
}

double FrameRecord::e2e_ms() const {
  if (outcome == FrameOutcome::kPending) return 0.0;
  return util::to_millis(finished - capture);
}

double FrameRecord::attributed_ms() const {
  double total = 0.0;
  for (const StageSpan& span : stages)
    if (span.set) total += util::to_millis(span.end - span.begin);
  return total;
}

FrameStage FrameRecord::dominant_stage() const {
  std::size_t best = 0;
  util::SimTime best_dur = -1;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (!stages[i].set) continue;
    const util::SimTime dur = stages[i].end - stages[i].begin;
    if (dur > best_dur) {
      best = i;
      best_dur = dur;
    }
  }
  return static_cast<FrameStage>(best);
}

FrameTraceContext FrameLedger::begin_frame(std::uint32_t session_id,
                                           std::uint64_t frame_index,
                                           util::SimTime capture,
                                           util::SimTime deadline) {
  std::lock_guard<std::mutex> lock(mutex_);
  FrameTraceContext ctx;
  ctx.session_id = session_id;
  ctx.frame_index = frame_index;
  ctx.sequence = next_sequence_++;
  FrameRecord record;
  record.ctx = ctx;
  record.capture = capture;
  record.deadline = deadline;
  by_sequence_[ctx.sequence] = records_.size();
  records_.push_back(std::move(record));
  return ctx;
}

void FrameLedger::stage(const FrameTraceContext& ctx, FrameStage stage,
                        util::SimTime begin, util::SimTime end) {
  if (!ctx.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_sequence_.find(ctx.sequence);
  if (it == by_sequence_.end()) return;
  FrameRecord::StageSpan& span =
      records_[it->second].stages[static_cast<std::size_t>(stage)];
  span.begin = begin;
  span.end = std::max(begin, end);
  span.set = true;
}

void FrameLedger::outcome(const FrameTraceContext& ctx, FrameOutcome outcome,
                          util::SimTime at) {
  if (!ctx.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_sequence_.find(ctx.sequence);
  if (it == by_sequence_.end()) return;
  FrameRecord& record = records_[it->second];
  record.finished = at;
  if (outcome == FrameOutcome::kCompleted && record.deadline != 0 &&
      at > record.deadline) {
    record.outcome = FrameOutcome::kCompletedLate;
  } else {
    record.outcome = outcome;
  }
}

std::size_t FrameLedger::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<FrameRecord> FrameLedger::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<FrameLedger::Autopsy> FrameLedger::autopsies() const {
  std::vector<Autopsy> out;
  for (const FrameRecord& record : records()) {
    if (record.outcome == FrameOutcome::kCompleted) continue;
    Autopsy a;
    a.ctx = record.ctx;
    a.outcome = record.outcome;
    a.dominant = record.dominant_stage();
    a.dominant_ms = record.stage_ms(a.dominant);
    util::SimTime last = record.finished;
    if (record.outcome == FrameOutcome::kPending) {
      for (const FrameRecord::StageSpan& span : record.stages)
        if (span.set) last = std::max(last, span.end);
    }
    a.elapsed_ms = util::to_millis(std::max<util::SimTime>(
        0, last - record.capture));
    out.push_back(a);
  }
  return out;
}

util::TextTable FrameLedger::stage_table() const {
  const std::vector<FrameRecord> records = this->records();
  util::TextTable table("frame ledger: per-stage latency");
  table.set_header(
      {"stage", "frames", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "share"});
  std::array<util::SampleSet, kFrameStageCount> samples;
  double attributed_total = 0.0;
  for (const FrameRecord& record : records) {
    for (std::size_t i = 0; i < kFrameStageCount; ++i) {
      if (!record.stages[i].set) continue;
      const double ms =
          util::to_millis(record.stages[i].end - record.stages[i].begin);
      samples[i].add(ms);
      attributed_total += ms;
    }
  }
  for (std::size_t i = 0; i < kFrameStageCount; ++i) {
    const util::SampleSet& set = samples[i];
    if (set.empty()) continue;
    set.sort_samples();  // the mean and the share sum in sorted order
    double sum = 0.0;
    for (double x : set.samples()) sum += x;
    table.add_row(
        {kStageNames[i], std::to_string(set.count()),
         util::TextTable::fmt(sum / static_cast<double>(set.count())),
         util::TextTable::fmt(set.quantile(0.5)),
         util::TextTable::fmt(set.quantile(0.9)),
         util::TextTable::fmt(set.quantile(0.99)),
         util::TextTable::fmt_pct(
             attributed_total > 0.0 ? sum / attributed_total : 0.0)});
  }
  return table;
}

util::TextTable FrameLedger::session_table() const {
  const std::vector<FrameRecord> records = this->records();
  util::TextTable table("frame ledger: per-session end-to-end");
  table.set_header({"session", "frames", "completed", "late", "dropped",
                    "e2e_p50_ms", "e2e_p99_ms", "worst_stage"});
  std::map<std::uint32_t, std::vector<const FrameRecord*>> by_session;
  for (const FrameRecord& record : records)
    by_session[record.ctx.session_id].push_back(&record);
  for (const auto& [session, frames] : by_session) {
    std::size_t completed = 0, late = 0, dropped = 0;
    util::SampleSet e2e;
    std::array<double, kFrameStageCount> stage_sum{};
    for (const FrameRecord* record : frames) {
      if (record->outcome == FrameOutcome::kCompleted) ++completed;
      if (record->outcome == FrameOutcome::kCompletedLate) ++late;
      if (is_drop(record->outcome)) ++dropped;
      if (record->outcome == FrameOutcome::kCompleted ||
          record->outcome == FrameOutcome::kCompletedLate)
        e2e.add(record->e2e_ms());
      for (std::size_t i = 0; i < kFrameStageCount; ++i)
        if (record->stages[i].set)
          stage_sum[i] += util::to_millis(record->stages[i].end -
                                          record->stages[i].begin);
    }
    const std::size_t worst = static_cast<std::size_t>(std::distance(
        stage_sum.begin(),
        std::max_element(stage_sum.begin(), stage_sum.end())));
    table.add_row({std::to_string(session), std::to_string(frames.size()),
                   std::to_string(completed), std::to_string(late),
                   std::to_string(dropped),
                   // A session may have no completed frame yet.
                   util::TextTable::fmt(e2e.empty() ? 0.0 : e2e.quantile(0.5)),
                   util::TextTable::fmt(e2e.empty() ? 0.0 : e2e.quantile(0.99)),
                   kStageNames[worst]});
  }
  return table;
}

util::TextTable FrameLedger::autopsy_table() const {
  util::TextTable table("deadline-miss autopsy: dominant stage per outcome");
  table.set_header({"outcome", "dominant_stage", "frames", "mean_dominant_ms",
                    "mean_elapsed_ms"});
  // outcome -> stage -> (count, dominant_ms sum, elapsed_ms sum)
  std::map<std::pair<int, int>, std::array<double, 3>> cells;
  for (const Autopsy& a : autopsies()) {
    auto& cell = cells[{static_cast<int>(a.outcome),
                        static_cast<int>(a.dominant)}];
    cell[0] += 1.0;
    cell[1] += a.dominant_ms;
    cell[2] += a.elapsed_ms;
  }
  for (const auto& [key, cell] : cells) {
    table.add_row({to_string(static_cast<FrameOutcome>(key.first)),
                   kStageNames[static_cast<std::size_t>(key.second)],
                   std::to_string(static_cast<long long>(cell[0])),
                   util::TextTable::fmt(cell[1] / cell[0]),
                   util::TextTable::fmt(cell[2] / cell[0])});
  }
  return table;
}

std::string FrameLedger::to_json() const {
  const std::vector<FrameRecord> records = this->records();
  std::string out = "{\"schema\":1,\"frames\":[";
  bool first = true;
  for (const FrameRecord& record : records) {
    if (!first) out += ",";
    first = false;
    out += "{\"session\":" + std::to_string(record.ctx.session_id) +
           ",\"frame\":" + std::to_string(record.ctx.frame_index) +
           ",\"seq\":" + std::to_string(record.ctx.sequence) +
           ",\"capture_us\":" + std::to_string(record.capture) +
           ",\"deadline_us\":" + std::to_string(record.deadline) +
           ",\"finished_us\":" + std::to_string(record.finished) +
           ",\"outcome\":\"";
    out += to_string(record.outcome);
    out += "\",\"stages\":[";
    bool first_stage = true;
    for (std::size_t i = 0; i < kFrameStageCount; ++i) {
      if (!record.stages[i].set) continue;
      if (!first_stage) out += ",";
      first_stage = false;
      out += "{\"stage\":\"";
      out += kStageNames[i];
      out += "\",\"begin_us\":" + std::to_string(record.stages[i].begin) +
             ",\"end_us\":" + std::to_string(record.stages[i].end) + "}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

bool FrameLedger::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string json = to_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(out);
}

std::vector<TraceEvent> FrameLedger::trace_events() const {
  std::vector<TraceEvent> events;
  for (const FrameRecord& record : records()) {
    const std::uint32_t session_track =
        kTrackSessionBase + record.ctx.session_id;
    const auto add = [&](const char* name, std::uint32_t track,
                         util::SimTime begin, util::SimTime end) {
      TraceEvent ev;
      ev.name = name;
      ev.track = track;
      ev.sim_begin = begin;
      ev.sim_end = end;
      ev.flow = record.ctx.flow_id();
      ev.args = {{"session", static_cast<long long>(record.ctx.session_id)},
                 {"frame", static_cast<long long>(record.ctx.frame_index)}};
      events.push_back(std::move(ev));
    };
    for (std::size_t i = 0; i < kFrameStageCount; ++i) {
      const FrameRecord::StageSpan& span = record.stages[i];
      if (!span.set) continue;
      add(kStageTrace[i].name,
          kStageTrace[i].net_track ? kTrackNet : session_track, span.begin,
          span.end);
    }
    if (is_drop(record.outcome))
      add(drop_trace_name(record.outcome), session_track, record.finished,
          record.finished);
  }
  return events;
}

void FrameLedger::publish(MetricsRegistry& registry) const {
  const std::vector<FrameRecord> records = this->records();
  std::int64_t completed = 0, late = 0, dropped = 0;
  util::SampleSet e2e;
  std::array<util::SampleSet, kFrameStageCount> stage_sets;
  for (const FrameRecord& record : records) {
    if (record.outcome == FrameOutcome::kCompleted) ++completed;
    if (record.outcome == FrameOutcome::kCompletedLate) ++late;
    if (is_drop(record.outcome)) ++dropped;
    if (record.outcome == FrameOutcome::kCompleted ||
        record.outcome == FrameOutcome::kCompletedLate)
      e2e.add(record.e2e_ms());
    for (std::size_t i = 0; i < kFrameStageCount; ++i)
      if (record.stages[i].set)
        stage_sets[i].add(util::to_millis(record.stages[i].end -
                                          record.stages[i].begin));
  }
  registry.counter("obs.ledger.frames")
      .set(static_cast<std::int64_t>(records.size()));
  registry.counter("obs.ledger.completed").set(completed);
  registry.counter("obs.ledger.completed_late").set(late);
  registry.counter("obs.ledger.dropped").set(dropped);
  registry.distribution("obs.ledger.e2e_ms", "ms").assign(e2e);
  for (std::size_t i = 0; i < kFrameStageCount; ++i) {
    if (stage_sets[i].empty()) continue;
    // Cold aggregate export (one call per run), not a per-frame path —
    // building the name here does not violate the hot-path concat lint.
    const std::string name =
        std::string("obs.ledger.stage.") + kStageNames[i];
    registry.distribution(name, "ms").assign(stage_sets[i]);
  }
}

void FrameLedger::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  by_sequence_.clear();
  next_sequence_ = 1;
}

}  // namespace dive::obs
