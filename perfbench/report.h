// Shared plumbing of the benchmark binary: run arguments, the result
// report (metrics, deterministic values, output checks, final JSON line),
// host-clock helpers, and the span self-time rollup over obs::Tracer
// snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/stats.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Host clock of the benchmark (steady, seconds).
double now_s();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// SampleSet::quantile, or 0 for an empty set (a layer that never ran).
double quantile(const dive::util::SampleSet& samples, double q);

/// Host time of repeated identical work (a clip visit or a serving pass,
/// checked bit-identical): keeps, per position, the fastest repeat. The
/// machine's transient slow-downs land on some repeats and not others, so
/// the per-position minimum measures the program, not its neighbours.
class BestOf {
 public:
  /// Folds one repeat's per-position times in; every repeat must have the
  /// same positions.
  void add(const std::vector<double>& times);
  [[nodiscard]] const std::vector<double>& best() const { return best_; }
  [[nodiscard]] int repeats() const { return repeats_; }

 private:
  std::vector<double> best_;
  int repeats_ = 0;
};

/// FNV-1a digest of deterministic outputs.
class Fnv1a {
 public:
  template <class T>
  void add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void add_bytes(const std::string& s) {
    for (const char c : s) add(c);
  }
  /// Folded to 32 bits, so it survives a JSON double exactly.
  [[nodiscard]] double value32() const {
    return static_cast<double>((h_ ^ (h_ >> 32)) & 0xffffffffULL);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Collects what one run prints. The last stdout line is one JSON object:
///   {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
///    "deterministic": {name: value}}
/// run.py checks "deterministic" against earlier runs of the same seed and
/// forwards the rest.
class Report {
 public:
  /// A reported metric; `samples` is the number of measurements behind it.
  void metric(const std::string& name, double value, const std::string& unit,
              long samples);
  /// A deterministic output (sim clock, counts, accuracy): must repeat
  /// bit-exactly in every run of the same seed, traced or not.
  void deterministic(const std::string& name, double value);
  /// An output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Frames attempted in the timed phase and frames whose outputs failed
  /// a check.
  void count(long attempted, long failed);
  /// Free-form line printed before the result (tables, context).
  void note(const std::string& line);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  /// Prints notes, metric lines and the JSON line; returns the exit code.
  int finish() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    long samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> deterministic_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Wall-clock totals of one span name over traced runs.
struct SpanTotals {
  double self_ms = 0.0;  ///< duration minus the part covered by child spans
  double incl_ms = 0.0;  ///< full duration
  long count = 0;
};

/// Self-time rollup of ScopedSpans (sim-only span_at events are skipped).
/// Children are the spans whose parent index names the span; spans nest
/// LIFO per thread, so children never overlap and their durations add up.
class SpanRollup {
 public:
  void add(const std::vector<dive::obs::TraceEvent>& events);
  [[nodiscard]] SpanTotals get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, SpanTotals>& totals() const {
    return totals_;
  }
  /// Number of distinct parents of spans named `name`.
  [[nodiscard]] long parents_of(const std::string& name) const;

 private:
  std::map<std::string, SpanTotals> totals_;
  std::map<std::string, long> distinct_parents_;
};

/// Appends the self-time table (ms per frame and share of the traced mean
/// frame time `frame_ms`) to the report's notes.
void note_self_times(Report& report, const SpanRollup& rollup, long frames,
                     double frame_ms);

/// Appends the wall time of every timed block (visit or pass) as one line.
void note_blocks(Report& report, const std::string& kind,
                 const std::vector<double>& seconds);

/// Appends one "modeled vs measured" row to the report's notes.
void note_model_row(Report& report, const std::string& stage,
                    double modeled_ms, double measured_ms);

}  // namespace perfbench
