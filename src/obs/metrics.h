// Unified metrics registry: named counters, gauges, and distributions
// shared by the agent pipeline, codec, network, edge, and serving layers.
//
// Naming scheme: dot-separated "<layer>.<subsystem>.<metric>" (e.g.
// "codec.rc.trials_attempted", "net.transmit_ms"); the prefix before the
// first dot is the layer and doubles as the trace category. Units are
// free-form short strings ("count", "bytes", "ms", "qp", "dB").
//
// Thread safety: handle creation takes the registry mutex; recording on a
// handle is lock-free for counters/gauges (relaxed atomics) and takes a
// per-distribution mutex for samples, so encoder worker-pool lanes can
// record concurrently.
//
// Determinism: every export walks the metric names in lexicographic
// order, and distribution summaries are computed from the *sorted* sample
// vector (order-independent floating-point sums), so two runs that record
// the same multiset of values export byte-identical text regardless of
// the interleaving that produced them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/sim_clock.h"
#include "util/stats.h"
#include "util/table.h"

namespace dive::obs {

/// Monotonic (or set-on-publish) integer metric.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Overwrite, for idempotent re-publication of externally aggregated
  /// totals (serve::ServeMetrics::publish).
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& unit() const { return unit_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string unit) : unit_(std::move(unit)) {}
  std::atomic<std::int64_t> value_{0};
  std::string unit_;
};

/// Last-value floating-point metric.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& unit() const { return unit_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string unit) : unit_(std::move(unit)) {}
  std::atomic<double> value_{0.0};
  std::string unit_;
};

/// Sample distribution answering count/min/max/mean/quantile queries;
/// backed by util::SampleSet so bench CDF plots can reuse the samples.
class Distribution {
 public:
  void add(double x) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.add(x);
  }
  /// Replace the whole sample set (idempotent re-publication).
  void assign(const util::SampleSet& samples) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_ = samples;
  }

  struct Summary {
    std::size_t count = 0;
    double min = 0.0, max = 0.0, mean = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };
  /// Order-independent summary: stats are computed over the sorted
  /// samples so the result depends only on the multiset of values.
  [[nodiscard]] Summary summary() const;

  [[nodiscard]] std::size_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.count();
  }
  [[nodiscard]] util::SampleSet snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }
  [[nodiscard]] const std::string& unit() const { return unit_; }

 private:
  friend class MetricsRegistry;
  explicit Distribution(std::string unit) : unit_(std::move(unit)) {}
  mutable std::mutex mutex_;
  util::SampleSet samples_;
  std::string unit_;
};

/// Owns every named metric; handles stay valid for the registry lifetime.
/// A name is bound to one kind: asking for an existing name with a
/// different kind throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& unit = "count");
  Gauge& gauge(const std::string& name, const std::string& unit = "");
  Distribution& distribution(const std::string& name,
                             const std::string& unit = "");

  [[nodiscard]] std::size_t size() const;

  /// Deterministic exports, metrics sorted by name.
  [[nodiscard]] util::TextTable to_table() const;
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;

  /// Flat deterministic (name, value) view for time-series sampling:
  /// counters and gauges by current value, distributions expanded to
  /// <name>.count / <name>.mean / <name>.p99. Sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> flatten() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Distribution>> distributions_;
};

/// Deterministic sim-clock time series over a registry: one row per
/// period boundary crossed, each row a full flatten() of the registry at
/// the moment sample() was called. Because sampling is driven from the
/// orchestrating loop at simulated boundaries (never from a wall timer),
/// the emitted CSV is byte-identical across runs and thread counts.
class MetricsSnapshotter {
 public:
  /// `registry` must outlive the snapshotter; `period` > 0 (sim micros).
  MetricsSnapshotter(const MetricsRegistry* registry, util::SimTime period);

  /// Emits one row per period boundary in (last sampled, now]; rows are
  /// stamped at the boundary time and carry the registry's current
  /// values. Call with monotone `now` from the sim loop.
  void sample(util::SimTime now);
  /// Unconditional row at `at` (e.g. the final drain snapshot).
  void force_sample(util::SimTime at);

  /// Next boundary sample() would emit a row for — lets callers skip
  /// expensive pre-sample work (metric publication) between boundaries.
  [[nodiscard]] util::SimTime next() const { return next_; }

  struct Row {
    util::SimTime at = 0;
    std::vector<std::pair<std::string, double>> values;  ///< sorted by name
  };
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  /// time_ms plus the sorted union of all metric columns; rows missing a
  /// column (metric not yet registered) emit an empty cell.
  [[nodiscard]] std::string to_csv() const;
  /// Compact timeline for the named columns only.
  [[nodiscard]] util::TextTable to_table(
      const std::vector<std::string>& columns) const;

 private:
  const MetricsRegistry* registry_;
  util::SimTime period_;
  util::SimTime next_;
  std::vector<Row> rows_;
};

}  // namespace dive::obs
