// Edge-server model: decode + DNN inference + downlink return, with a
// simple latency model ("serverless edge computing" entity of Sec. II-A).
// The server is stateful because inter frames reference its decoder state.
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
#include "util/rng.h"
#include "util/sim_clock.h"

namespace dive::obs {
struct ObsContext;
}  // namespace dive::obs

namespace dive::edge {

struct ServerConfig {
  util::SimTime decode_latency = util::from_millis(3.0);
  util::SimTime inference_latency = util::from_millis(18.0);
  double inference_jitter_ms = 2.0;  ///< uniform +- jitter
  util::SimTime downlink_delay = util::from_millis(8.0);
  DetectorConfig detector;
};

/// Outcome of processing one uploaded frame.
struct InferenceResult {
  DetectionList detections;
  util::SimTime result_at_agent = 0;  ///< when the agent holds the answer
};

class EdgeServer {
 public:
  EdgeServer(ServerConfig config, std::uint64_t seed)
      : config_(config), detector_(config.detector), rng_(seed) {}

  /// Decodes an uploaded frame that arrived at `arrival`, runs the
  /// detector, and reports when the result lands back on the agent. The
  /// jitter applied is inference_jitter(k) for the k-th process() call.
  InferenceResult process(std::span<const std::uint8_t> data,
                          util::SimTime arrival);

  /// Decodes + detects without applying the latency model (and without
  /// consuming jitter): the serving layer schedules decode/inference
  /// timing itself and pairs the result with inference_jitter().
  DetectionList decode_and_detect(std::span<const std::uint8_t> data);

  /// Decodes an uploaded frame, advancing the decoder reference state,
  /// without detecting and without the latency model. RoI gating decodes
  /// through this and then drives the detector itself on masked frames.
  codec::DecodedFrame decode(std::span<const std::uint8_t> data);

  /// Consumes one value from the sequential jitter stream — exactly what
  /// process() does internally for its k-th call. A gating front-end that
  /// replaces process() calls this once per frame so the (seed, k)
  /// pairing, and thus every downstream timestamp, is unchanged.
  util::SimTime take_jitter() { return inference_jitter(processed_++); }

  /// Inference jitter of the k-th frame — a pure function of (seed, k),
  /// uniform in [-inference_jitter_ms, +inference_jitter_ms]. See the
  /// determinism contract above.
  [[nodiscard]] util::SimTime inference_jitter(std::uint64_t frame_index) const;

  /// Runs the detector only (no codec) — used for the raw-frame
  /// ground-truth protocol and for DDS region re-inference.
  [[nodiscard]] DetectionList infer_raw(const video::Frame& frame) const {
    return detector_.detect(frame);
  }

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] bool has_reference() const { return decoder_.has_reference(); }
  /// Frames consumed through process() (decode_and_detect not counted;
  /// the serving layer indexes jitter by its own per-session counter).
  [[nodiscard]] std::uint64_t frames_processed() const { return processed_; }

  /// Attaches an observability context (non-owning, null detaches):
  /// "edge.*" counters and the service-time distribution (simulated
  /// time). The frame's inference/result stages are the caller's to
  /// record in the ledger.
  void set_obs(obs::ObsContext* obs) { obs_ = obs; }

 private:
  ServerConfig config_;
  codec::Decoder decoder_;
  ChromaDetector detector_;
  util::Rng rng_;  ///< base seed; per-frame streams are forked off it
  obs::ObsContext* obs_ = nullptr;
  std::uint64_t processed_ = 0;
};

}  // namespace dive::edge
