// Multi-agent serving scenario: N mobile agents stream synthetic driving
// clips to ONE edge node through per-agent uplinks; the node multiplexes
// them over a bounded inference worker pool (serve::ServeNode). This is
// the harness behind examples/multi_agent_serve and bench_serve_scaling,
// answering "how many agents can one edge node sustain before accuracy
// degrades".
//
// Each agent runs a deliberately simple pipeline (fixed-QP encode,
// head-of-line timeout upload, MOT fallback) so that the contended
// resource is the node's inference capacity, not the codec: a frame the
// node rejects — queue full or predicted deadline miss — degrades exactly
// like a link outage (Sec. III-E): the agent tracks the last known boxes
// forward with the frame's motion field and marks its next upload intra.
//
// Determinism: everything is seeded (clips, node, jitter streams), frames
// are processed in global capture order with per-session phase offsets,
// and the serve scheduler is event-driven — the same options produce
// bit-identical results on every run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheme.h"
#include "serve/node.h"
#include "util/sim_clock.h"

namespace dive::harness {

struct ServeScenarioOptions {
  int sessions = 4;
  int frames_per_session = 48;
  /// Distinct synthetic clips; session i plays clip (i % clip_pool).
  int clip_pool = 2;
  /// Trajectory profile mix of the clip pool (see data::DatasetSpec).
  /// Force 1.0 / 0.0 to pin every clip to one ego-motion scenario.
  double stop_and_go_fraction = 0.25;
  double turning_fraction = 0.2;
  /// Reduced resolution (multiples of 16) keeps 64-session sweeps fast.
  int width = 192;
  int height = 112;
  int base_qp = 28;
  /// Encoder worker threads per agent (0 = hardware threads, 1 = serial).
  /// Encoded bytes are bit-identical either way — the gated-determinism
  /// suite sweeps this to prove it holds through the RoI lane too.
  int encoder_threads = 0;
  double mbps = 2.0;  ///< per-agent uplink rate
  util::SimTime head_timeout = util::from_millis(350.0);
  util::SimTime propagation_delay = util::from_millis(10.0);
  core::AgentLatencies latencies;  // dive-lint: allow(unset-knob) perfbench reads it
  bool enable_offline_tracking = true;
  /// RoI metadata lane: every agent ships the compressed-domain sidecar
  /// (coded MV field + SKIP flags + foreground hulls) with each frame —
  /// its bytes ride the uplink — and the node infers through the
  /// per-session roi::RoiGate. Gate policy: node.session.roi_gate.
  bool roi_metadata = false;
  serve::ServeNodeConfig node;
  std::uint64_t seed = 99;
  /// Optional observability context attached to the node (per-session
  /// infer spans, admission-drop instants, serve.* metrics on drain).
  /// When set, the scenario additionally mints one FrameTraceContext per
  /// captured frame (global capture order -> deterministic sequence /
  /// flow ids) and records every stage into obs->ledger, so the trace
  /// export carries cross-track flow arrows and the ledger a per-frame
  /// latency breakdown + deadline-miss autopsy.
  obs::ObsContext* obs = nullptr;
  /// Optional deterministic time series (requires obs): the scenario
  /// republishes serve metrics and samples the registry at each of the
  /// snapshotter's sim-clock boundaries, plus a final row after drain.
  obs::MetricsSnapshotter* timeline = nullptr;
};

/// Defaults tuned so the 1 -> 64 sweep crosses the node's capacity:
/// 2 workers, batches of 4 with a 4 ms window, 4-deep session queues,
/// 400 ms deadline.
ServeScenarioOptions default_serve_options();

struct ServeSessionResult {
  std::uint32_t id = 0;
  long frames = 0;
  long offloaded = 0;  ///< frames answered by edge inference
  long mot = 0;        ///< frames covered by offline tracking
  long dropped_queue = 0;
  long dropped_deadline = 0;
  long dropped_uplink = 0;
  double map = 0.0;
  double mean_e2e_ms = 0.0;  ///< offloaded frames, capture -> result
};

struct ServeScenarioResult {
  std::vector<ServeSessionResult> sessions;

  // Aggregates over every frame of every session.
  double aggregate_map = 0.0;
  double offload_fraction = 0.0;
  double mean_e2e_ms = 0.0;
  double p95_e2e_ms = 0.0;
  double mean_wait_ms = 0.0;
  double mean_batch = 0.0;
  double mean_queue_depth = 0.0;
  long frames = 0;
  long submitted = 0;
  long admitted = 0;
  long completed = 0;
  long dropped_queue = 0;
  long dropped_deadline = 0;
  long dropped_uplink = 0;
  long mot = 0;

  /// Accuracy by ego-motion state, indexed by data::MotionState
  /// (0 = static / stop-and-go, 1 = straight, 2 = turning); -1 when the
  /// state never occurred.
  double map_by_state[3] = {-1.0, -1.0, -1.0};
  long frames_by_state[3] = {0, 0, 0};

  // RoI gating (all zero when the metadata lane is off).
  long gated = 0;              ///< completed frames inferred tile-gated
  long full_inference = 0;     ///< sidecar frames that ran full-frame
  long propagated_boxes = 0;   ///< background boxes carried by MV shift
  long sidecar_bytes = 0;      ///< total metadata bytes sent over uplinks
  double mean_gate_work = 0.0; ///< scheduler work fraction, sidecar frames
  double mean_gated_pixel_fraction = 0.0;  ///< gated frames only

  /// The node's metrics, for table output.
  serve::ServeMetrics metrics;
};

ServeScenarioResult run_serve_scenario(const ServeScenarioOptions& options);

}  // namespace dive::harness
