#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>

#include "obs/frame_ledger.h"

namespace dive::obs {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Category = metric-naming layer prefix ("agent.encode" -> "agent").
std::string category_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string track_name(std::uint32_t track) {
  switch (track) {
    case kTrackAgent: return "agent";
    case kTrackCodec: return "codec";
    case kTrackNet: return "net";
    default: break;
  }
  if (track >= kTrackSessionBase)
    return "session-" + std::to_string(track - kTrackSessionBase);
  return "track-" + std::to_string(track);
}

void append_args(std::string& out,
                 const std::vector<std::pair<std::string, long long>>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ",";
    // Separate appends: the operator+ temporary chain trips a GCC 12
    // -Wrestrict false positive (PR 105329) under -Werror.
    out += "\"";
    out += json_escape(args[i].first);
    out += "\":";
    out += std::to_string(args[i].second);
  }
  out += "}";
}

}  // namespace

void Tracer::span_at(const std::string& name, std::uint32_t track,
                     util::SimTime begin, util::SimTime end,
                     std::vector<std::pair<std::string, long long>> args,
                     std::uint64_t flow) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent ev;
  ev.name = name;
  ev.track = track;
  ev.sim_begin = begin;
  ev.sim_end = std::max(begin, end);
  ev.flow = flow;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Tracer::instant(const std::string& name, std::uint32_t track,
                     util::SimTime at,
                     std::vector<std::pair<std::string, long long>> args,
                     std::uint64_t flow) {
  span_at(name, track, at, at, std::move(args), flow);
}

std::int64_t Tracer::begin_span(const char* name, std::uint32_t track) {
  if (!enabled()) return -1;
  const std::uint64_t now = wall_now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto index = static_cast<std::int64_t>(events_.size());
  TraceEvent ev;
  ev.name = name;
  ev.track = track;
  ev.sim_begin = ev.sim_end = sim_now();
  ev.wall_begin_ns = ev.wall_end_ns = now;
  ev.open = true;
  auto& stack = open_stacks_[std::this_thread::get_id()];
  if (!stack.empty()) ev.parent = stack.back();
  stack.push_back(index);
  events_.push_back(std::move(ev));
  return index;
}

void Tracer::span_arg(std::int64_t index, const char* key, long long value) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= static_cast<std::int64_t>(events_.size())) return;
  events_[static_cast<std::size_t>(index)].args.emplace_back(key, value);
}

void Tracer::span_flow(std::int64_t index, std::uint64_t flow) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= static_cast<std::int64_t>(events_.size())) return;
  events_[static_cast<std::size_t>(index)].flow = flow;
}

void Tracer::end_span(std::int64_t index) {
  if (index < 0) return;
  const std::uint64_t now = wall_now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= static_cast<std::int64_t>(events_.size())) return;
  TraceEvent& ev = events_[static_cast<std::size_t>(index)];
  ev.wall_end_ns = now;
  ev.sim_end = std::max(ev.sim_begin, sim_now());
  ev.open = false;
  auto& stack = open_stacks_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == index) stack.pop_back();
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  open_stacks_.clear();
}

std::string Tracer::to_chrome_json(TraceClock clock,
                                  const FrameLedger* ledger) const {
  std::vector<TraceEvent> events = snapshot();
  // The ledger's stage spans join the tracer's own events before the one
  // sort and flow pass below, so a frame's flow chain spans both.
  if (clock == TraceClock::kSim && ledger != nullptr) {
    std::vector<TraceEvent> derived = ledger->trace_events();
    events.insert(events.end(), std::make_move_iterator(derived.begin()),
                  std::make_move_iterator(derived.end()));
  }

  // Wall export skips sim-only span_at events (they carry no wall data).
  std::vector<std::size_t> order;
  order.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (clock == TraceClock::kWall && events[i].wall_begin_ns == 0) continue;
    order.push_back(i);
  }
  std::uint64_t wall_base = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i : order)
    wall_base = std::min(wall_base, events[i].wall_begin_ns);
  // Stable sort by begin timestamp; record order breaks ties.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (clock == TraceClock::kSim)
                       return events[a].sim_begin < events[b].sim_begin;
                     return events[a].wall_begin_ns < events[b].wall_begin_ns;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Track-name metadata for every track in use, sorted by id.
  std::vector<std::uint32_t> tracks;
  for (std::size_t i : order) tracks.push_back(events[i].track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  for (std::uint32_t t : tracks) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(t) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           json_escape(track_name(t)) + "\"}}";
  }

  // Flow membership in output order: a flow with >= 2 events gets one
  // flow event per member ("s" first, "t" middle, "f" last) emitted
  // right after the member's "X" event at the same ts/tid, so viewers
  // bind the arrow to that slice. Deterministic: ids are mint sequences
  // and positions follow the sorted output order.
  std::map<std::uint64_t, std::uint32_t> flow_counts;
  for (std::size_t i : order)
    if (events[i].flow != 0) ++flow_counts[events[i].flow];
  std::map<std::uint64_t, std::uint32_t> flow_seen;

  char buf[64];
  for (std::size_t i : order) {
    const TraceEvent& ev = events[i];
    if (!first) out += ",";
    first = false;
    std::string ts;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(ev.track) +
           ",\"name\":\"" + json_escape(ev.name) + "\",\"cat\":\"" +
           json_escape(category_of(ev.name)) + "\",";
    if (clock == TraceClock::kSim) {
      ts = std::to_string(ev.sim_begin);
      out += "\"ts\":" + ts +
             ",\"dur\":" + std::to_string(ev.sim_end - ev.sim_begin) + ",";
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(ev.wall_begin_ns - wall_base) /
                        1000.0);
      ts = buf;
      out += "\"ts\":" + ts;
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(ev.wall_end_ns - ev.wall_begin_ns) /
                        1000.0);
      out += std::string(",\"dur\":") + buf + ",";
    }
    append_args(out, ev.args);
    out += "}";
    if (ev.flow != 0 && flow_counts[ev.flow] >= 2) {
      const std::uint32_t k = flow_seen[ev.flow]++;
      const bool last = k + 1 == flow_counts[ev.flow];
      out += ",{\"ph\":\"";
      out += k == 0 ? "s" : (last ? "f" : "t");
      out += "\",\"pid\":1,\"tid\":" + std::to_string(ev.track) +
             ",\"name\":\"frame\",\"cat\":\"flow\",\"id\":" +
             std::to_string(ev.flow) + ",\"ts\":" + ts;
      if (k != 0) out += ",\"bp\":\"e\"";
      out += "}";
    }
  }
  out += "]}\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path, TraceClock clock,
                               const FrameLedger* ledger) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string json = to_chrome_json(clock, ledger);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(out);
}

}  // namespace dive::obs
