// The multi-agent edge node: a facade composing Session (per-agent
// decoder + uplink), AdmissionController (bounded queues + deadline
// policy), Scheduler (batched inference worker pool), and ServeMetrics.
//
// Driving loop (one simulated node, N agents):
//   Session& s = node.open_session(uplink);       // once per agent
//   ... agent encodes a frame and transmits on s.uplink() ...
//   verdict = node.submit({s.id(), frame, capture, tx.arrival, bytes});
//   if (verdict != kAdmit) -> agent falls back to MOT, next frame intra
//   results = node.run_until(next_capture);       // completed inferences
//   ... finally: node.drain();
//
// Determinism: with a fixed node seed the full schedule, every jitter
// draw, and every metric are pure functions of the submitted frames;
// per-session results additionally do not depend on what other sessions
// do (see edge/server.h). run_until() requires frames be submitted in
// capture order — the same contract as Scheduler::run_until.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "edge/server.h"
#include "obs/obs.h"
#include "roi/metadata.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/scheduler.h"
#include "serve/session.h"

namespace dive::serve {

struct ServeNodeConfig {
  SessionConfig session;
  AdmissionConfig admission;
  SchedulerConfig scheduler;
  /// Shared latency constants; decoders are per-session.
  edge::ServerConfig server;  // dive-lint: allow(unset-knob) perfbench reads it
  std::uint64_t seed = 1;
};

/// One frame handed to the node, payload included.
struct FrameJob {
  std::uint32_t session_id = 0;
  std::uint64_t frame_index = 0;
  util::SimTime capture_time = 0;
  util::SimTime arrival = 0;
  std::vector<std::uint8_t> data;
  /// Serialized roi::RoiMetadata sidecar (empty = no RoI lane: the frame
  /// is inferred full-frame exactly as before the RoI subsystem). Its
  /// bytes already rode the uplink with the frame.
  std::vector<std::uint8_t> roi_metadata;
  /// Causal identity minted at encode time (harness). Unminted = frame
  /// not traced: spans fall back to untagged, the ledger skips it.
  obs::FrameTraceContext trace;
};

/// A completed inference on its way back to the agent.
struct JobResult {
  std::uint32_t session_id = 0;
  std::uint64_t frame_index = 0;
  edge::DetectionList detections;
  util::SimTime capture_time = 0;
  util::SimTime arrival = 0;
  util::SimTime infer_start = 0;      ///< batch service start
  util::SimTime infer_done = 0;       ///< batch service end
  util::SimTime result_at_agent = 0;  ///< after jitter + downlink
  std::size_t batch_size = 1;
  bool gated = false;  ///< inferred through the session's RoI gate
  double work = 1.0;   ///< inference cost fraction the scheduler charged
};

class ServeNode {
 public:
  explicit ServeNode(ServeNodeConfig config);

  /// Registers a new agent; ids are dense and assigned in call order.
  Session& open_session(std::shared_ptr<net::Uplink> uplink);
  [[nodiscard]] Session& session(std::uint32_t id);

  /// Admission decision for a frame that reached the edge. An admitted
  /// frame is decoded and planned now, in per-session frame order, and
  /// completes during a later run_until()/drain(); rejected frames are
  /// accounted and discarded (the agent treats the rejection like a link
  /// outage). A malformed admitted upload throws codec::BitstreamError
  /// before anything is counted or queued.
  AdmissionVerdict submit(FrameJob job);

  /// Dispatches every batch decidable by `now` and returns the finished
  /// results ordered by (result_at_agent, session, frame).
  std::vector<JobResult> run_until(util::SimTime now);
  std::vector<JobResult> drain();

  [[nodiscard]] ServeMetrics& metrics() { return metrics_; }
  [[nodiscard]] const ServeMetrics& metrics() const { return metrics_; }

  /// Attaches an observability context (non-owning, null detaches).
  /// Every admitted frame leaves a serve.queued instant (with its queue
  /// depth) on its session's track; its admission/batch/inference/result
  /// stages and drop outcomes go to the frame ledger, which the sim trace
  /// export derives spans from. drain() republishes ServeMetrics into
  /// the registry so all layers share one export surface.
  void set_obs(obs::ObsContext* obs) { obs_ = obs; }

 private:
  /// An admitted job awaiting dispatch: the frame decoded at submission
  /// and its gate plan, which priced the scheduler job. Without a
  /// parsable sidecar the plan is full-frame.
  struct PendingPayload {
    edge::PlannedFrame frame;
    bool roi = false;  ///< frame arrived with a sidecar lane
  };

  std::vector<JobResult> realize(std::vector<Batch> batches);

  ServeNodeConfig config_;
  AdmissionController admission_;
  Scheduler scheduler_;
  ServeMetrics metrics_;
  obs::ObsContext* obs_ = nullptr;
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Payloads of admitted jobs awaiting dispatch.
  std::map<std::pair<std::uint32_t, std::uint64_t>, PendingPayload> payloads_;
};

}  // namespace dive::serve
