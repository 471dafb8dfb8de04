#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(const dive::util::SampleSet& samples, double q) {
  return samples.empty() ? 0.0 : samples.quantile(q);
}

void BestOf::add(const std::vector<double>& times) {
  if (repeats_++ == 0) {
    best_ = times;
    return;
  }
  for (std::size_t i = 0; i < best_.size() && i < times.size(); ++i)
    best_[i] = std::min(best_[i], times[i]);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, long samples) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
}

void Report::deterministic(const std::string& name, double value) {
  deterministic_.emplace_back(name, std::isfinite(value) ? value : -1.0);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::count(long attempted, long failed) {
  attempted_ = attempted;
  failed_ = failed;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int Report::finish() const {
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  for (const auto& m : metrics_) {
    std::printf("metric %-32s %14.6f %-6s (n=%ld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max(1L, attempted_));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}, \"deterministic\": {";
  for (std::size_t i = 0; i < deterministic_.size(); ++i) {
    json += (i ? ", \"" : "\"") + deterministic_[i].first +
            "\": " + num(deterministic_[i].second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

void SpanRollup::add(const std::vector<dive::obs::TraceEvent>& events) {
  std::vector<double> child_ms(events.size(), 0.0);
  const auto dur_ms = [](const dive::obs::TraceEvent& e) {
    return static_cast<double>(e.wall_end_ns - e.wall_begin_ns) / 1e6;
  };
  for (const auto& e : events) {
    if (e.wall_begin_ns == 0 || e.open) continue;
    if (e.parent >= 0) child_ms[static_cast<std::size_t>(e.parent)] += dur_ms(e);
  }
  std::map<std::string, std::set<std::int64_t>> parents;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.wall_begin_ns == 0 || e.open) continue;
    SpanTotals& t = totals_[e.name];
    t.incl_ms += dur_ms(e);
    t.self_ms += dur_ms(e) - child_ms[i];
    ++t.count;
    parents[e.name].insert(e.parent);
  }
  for (const auto& [name, set] : parents)
    distinct_parents_[name] += static_cast<long>(set.size());
}

SpanTotals SpanRollup::get(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? SpanTotals{} : it->second;
}

long SpanRollup::parents_of(const std::string& name) const {
  const auto it = distinct_parents_.find(name);
  return it == distinct_parents_.end() ? 0 : it->second;
}

void note_self_times(Report& report, const SpanRollup& rollup, long frames,
                     double frame_ms) {
  const double n = static_cast<double>(std::max(1L, frames));
  char line[160];
  report.note("self time per frame (traced run, " + std::to_string(frames) +
              " frames):");
  double sum = 0.0;
  for (const auto& [name, t] : rollup.totals()) {
    // Set-up, scoring and the final drain run outside the per-frame span.
    if (name == "bench.render" || name == "bench.gt_detect" ||
        name == "bench.score" || name == "bench.node_drain")
      continue;
    std::snprintf(line, sizeof line, "  %-28s %9.3f ms  %5.1f%%  (%ld spans)",
                  name.c_str(), t.self_ms / n,
                  frame_ms > 0 ? 100.0 * t.self_ms / n / frame_ms : 0.0,
                  t.count);
    report.note(line);
    sum += t.self_ms / n;
  }
  std::snprintf(line, sizeof line,
                "  %-28s %9.3f ms  (traced mean frame %.3f ms)", "sum",
                sum, frame_ms);
  report.note(line);
}

void note_blocks(Report& report, const std::string& kind,
                 const std::vector<double>& seconds) {
  std::string line = kind + " wall s:";
  char buf[32];
  for (const double s : seconds) {
    std::snprintf(buf, sizeof buf, " %.3f", s);
    line += buf;
  }
  report.note(line);
}

void note_model_row(Report& report, const std::string& stage,
                    double modeled_ms, double measured_ms) {
  char line[160];
  std::snprintf(line, sizeof line,
                "  model %-30s modeled %7.2f ms  measured host %8.3f ms",
                stage.c_str(), modeled_ms, measured_ms);
  report.note(line);
}

}  // namespace perfbench
