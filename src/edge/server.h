// Edge-server model: decode + DNN inference + downlink return, with a
// simple latency model ("serverless edge computing" entity of Sec. II-A),
// optionally RoI-gated by a sidecar (edge/gate.h). The server is stateful:
// inter frames reference its decoder state, and the gate carries the
// previous frame's boxes and a refresh counter.
//
// Determinism contract (multi-session serving): the inference jitter
// applied to the k-th frame a server processes (k = 0, 1, ...) is a pure
// function of (seed, k) — each frame forks a fresh stream off the base
// seed instead of consuming a shared sequential engine. A serving layer
// that multiplexes many sessions therefore produces per-session results
// that are independent of scheduling order: give every session's server a
// distinct seed (serve:: uses util::Rng(node_seed).fork(session_id)) and
// a session's jitter sequence never shifts when other sessions process
// more or fewer frames, or when batches interleave sessions differently.
#pragma once

#include <cstdint>
#include <span>

#include "codec/decoder.h"
#include "edge/detection.h"
#include "edge/detector.h"
#include "edge/gate.h"
#include "roi/metadata.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace dive::obs {
struct ObsContext;
}  // namespace dive::obs

namespace dive::edge {

/// Uniform +- jitter on every inference, milliseconds.
inline constexpr double kInferenceJitterMs = 2.0;
/// Result return path from the edge to the agent.
inline constexpr util::SimTime kDownlinkDelay = util::from_millis(8.0);

struct ServerConfig {
  util::SimTime decode_latency = util::from_millis(3.0);  // dive-lint: allow(unset-knob) perfbench reads it
  util::SimTime inference_latency = util::from_millis(18.0);  // dive-lint: allow(unset-knob) perfbench reads it
  DetectorConfig detector;  // dive-lint: allow(unset-knob) perfbench reads it
};

/// A decoded upload and how it will be inferred (EdgeServer::plan).
struct PlannedFrame {
  codec::DecodedFrame decoded;
  GatePlan plan;
};

/// Outcome of processing one uploaded frame.
struct InferenceResult {
  DetectionList detections;
  util::SimTime result_at_agent = 0;  ///< when the agent holds the answer
};

class EdgeServer {
 public:
  EdgeServer(ServerConfig config, std::uint64_t seed,
             RoiGateConfig gate = {})
      : config_(config), gate_(gate), detector_(config.detector), rng_(seed) {}

  /// Synchronous endpoint of every scheme: plan() then run() on an upload
  /// that arrived at `arrival`, reporting when the result lands back on
  /// the agent. The jitter applied is inference_jitter(k) for the k-th
  /// process() call. `plan_out`, when given, receives the plan used.
  InferenceResult process(std::span<const std::uint8_t> data,
                          util::SimTime arrival,
                          const roi::RoiMetadata* meta = nullptr,
                          GatePlan* plan_out = nullptr);

  /// Decodes the next upload and decides how it is inferred: gated on
  /// `meta`'s hulls and the frame's own motion and SKIP flags, or full
  /// frame (`meta` null). Advances the decoder and the refresh counter —
  /// call exactly once per frame, in per-session frame order. Throws
  /// codec::BitstreamError on a malformed upload, with no state changed.
  [[nodiscard]] PlannedFrame plan(std::span<const std::uint8_t> data,
                                  const roi::RoiMetadata* meta);

  /// Infers a planned frame, without the latency model or jitter: the
  /// serving layer schedules the timing itself and pairs the result with
  /// inference_jitter(). Makes its detections the held boxes of the next
  /// frame, so runs too must come in per-session frame order.
  GatedDetections run(const PlannedFrame& frame);

  /// Inference jitter of the k-th frame — a pure function of (seed, k),
  /// uniform in [-kInferenceJitterMs, +kInferenceJitterMs]. See the
  /// determinism contract above.
  [[nodiscard]] util::SimTime inference_jitter(std::uint64_t frame_index) const;

  /// Runs the detector only (no codec) — used for the raw-frame
  /// ground-truth protocol and for DDS region re-inference.
  [[nodiscard]] DetectionList infer_raw(const video::Frame& frame) const {
    return detector_.detect(frame);
  }

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] bool has_reference() const { return decoder_.has_reference(); }
  /// Frames consumed through process() (run() not counted; the serving
  /// layer indexes jitter by its own per-session counter).
  [[nodiscard]] std::uint64_t frames_processed() const { return processed_; }
  [[nodiscard]] const GateStats& gate_stats() const { return gate_stats_; }
  /// Detections the gate propagates from: the previous frame's output.
  [[nodiscard]] const DetectionList& held() const { return held_; }

  /// Attaches an observability context (non-owning, null detaches):
  /// process() records "edge.*" counters and the service-time
  /// distribution (simulated time). The frame's inference/result stages
  /// are the caller's to record in the ledger.
  void set_obs(obs::ObsContext* obs) { obs_ = obs; }

 private:
  ServerConfig config_;
  RoiGateConfig gate_;
  codec::Decoder decoder_;
  ChromaDetector detector_;
  util::Rng rng_;  ///< base seed; per-frame streams are forked off it
  obs::ObsContext* obs_ = nullptr;
  std::uint64_t processed_ = 0;
  GateStats gate_stats_;  ///< `planned` is the refresh cadence's clock
  DetectionList held_;
};

}  // namespace dive::edge
