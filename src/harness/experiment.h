// Experiment harness: runs an analytics scheme over a generated dataset
// through a simulated uplink, scoring accuracy against the paper's
// protocol (detections on raw frames are ground truth) and collecting
// response-time statistics. Every figure bench in bench/ is a thin driver
// over this module.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dds.h"
#include "baselines/eaar.h"
#include "baselines/o3.h"
#include "baselines/raw_stream.h"
#include "core/agent.h"
#include "data/dataset.h"
#include "edge/evaluator.h"
#include "net/bandwidth.h"
#include "util/stats.h"

namespace dive::obs {
struct ObsContext;
}

namespace dive::harness {

enum class SchemeKind {
  kDive = 0,
  kO3 = 1,
  kEaar = 2,
  kDds = 3,
  kUniform = 4,
};

const char* to_string(SchemeKind kind);

/// Network scenario: a factory so every run gets a fresh trace/uplink.
struct NetworkScenario {
  double mbps = 2.0;
  /// When > 0: 1 outage of `outage_duration_s` every `outage_interval_s`.
  double outage_interval_s = 0.0;
  double outage_duration_s = 1.0;
  double first_outage_s = 3.0;
  /// Bandwidth churn around the mean (0 = constant).
  double fluctuation_depth = 0.0;
  util::SimTime head_timeout = util::from_millis(350.0);
  util::SimTime propagation_delay = util::from_millis(10.0);

  [[nodiscard]] std::shared_ptr<net::BandwidthTrace> make_trace(
      double clip_duration_s, std::uint64_t seed) const;
};

/// Per-run knobs, covering every ablation the paper sweeps.
struct SchemeOptions {
  codec::MotionSearchMethod search = codec::MotionSearchMethod::kHex;
  /// Per-macroblock SKIP coding (encoder.h): forced reference copies for
  /// macroblocks whose residual at the predicted MV is negligible.
  bool skip_blocks = true;
  /// Fixed background delta for Fig. 11 (-1 = adaptive).
  int fixed_delta = -1;
  bool enable_offline_tracking = true;  ///< Fig. 13
  /// Ship the RoI sidecar (MB grid + foreground hulls) and gate edge
  /// inference on it and on the decoded motion and SKIP flags (DiVE only;
  /// see roi/). Off: uploads and encoded bytes are byte-identical to a
  /// build without the RoI subsystem.
  bool roi_metadata = false;
  int gop_length = 48;
  std::uint64_t seed = 99;
  /// Optional observability context, forwarded into the DiVE agent (and
  /// its encoder/uplink/edge server). Non-owning; must outlive the run.
  obs::ObsContext* obs = nullptr;
};

struct RunResult {
  std::string scheme;
  double ap_car = 0.0;
  double ap_ped = 0.0;
  double map = 0.0;
  double mean_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double mean_kbytes_per_frame = 0.0;
  double offload_fraction = 0.0;
  double mean_base_qp = 0.0;
  long frames = 0;
  /// Per-motion-state AP (Fig. 14): indexed by data::MotionState.
  std::array<double, 3> ap_car_by_state{};
  std::array<double, 3> ap_ped_by_state{};
  std::array<long, 3> frames_by_state{};
};

/// Builds a scheme instance bound to a fresh uplink/server pair.
std::unique_ptr<core::AnalyticsScheme> make_scheme(
    SchemeKind kind, const SchemeOptions& options,
    const NetworkScenario& network, const data::Clip& clip,
    double clip_duration_s);

/// Runs `kind` over all clips (fresh network + scheme state per clip) and
/// aggregates.
RunResult run_experiment(SchemeKind kind, const std::vector<data::Clip>& clips,
                         const NetworkScenario& network,
                         const SchemeOptions& options = {});

}  // namespace dive::harness
