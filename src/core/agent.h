// The DiVE mobile agent (Fig. 5): per captured frame it
//   1. pulls motion vectors from the codec's motion estimation,
//   2. preprocesses them (ego-motion judgement, rotation removal),
//   3. extracts foreground regions,
//   4. assigns QP offsets (foreground 0, background adaptive delta) and
//      encodes to the bandwidth-estimator's byte budget,
//   5. uploads; on head-of-line timeout it falls back to motion-vector
//      offline tracking until the link recovers.
#pragma once

#include <memory>

#include "codec/encoder.h"
#include "core/bandwidth_estimator.h"
#include "core/foreground_extractor.h"
#include "core/offline_tracker.h"
#include "core/preprocess.h"
#include "core/qp_assigner.h"
#include "core/scheme.h"
#include "edge/server.h"
#include "geom/pinhole_camera.h"
#include "net/uplink.h"
#include "roi/metadata.h"

namespace dive::obs {
struct ObsContext;
}  // namespace dive::obs

namespace dive::core {

struct DiveConfig {
  PreprocessConfig preprocess;
  ForegroundExtractorConfig foreground;
  QpAssignerConfig qp;
  double fps = 12.0;
  bool enable_offline_tracking = true;  ///< Fig. 13 ablation switch
  /// Ship the RoI sidecar (MB grid + foreground hulls) with every upload
  /// and let the edge server gate inference on it and on the motion and
  /// SKIP flags it decodes (edge/gate.h, with the server's RoiGateConfig).
  /// Sidecar bytes are sent on top of the encoder's byte target, so the
  /// upload runs above the estimated rate; the video bitstream is
  /// byte-identical on or off.
  bool roi_metadata = false;
  std::uint64_t seed = 7;
  /// Encoder worker lanes (motion search + macroblock loop). Applied to
  /// the encoder config unless that already names a count. 0 defers to
  /// the DIVE_THREADS env var / hardware default; 1 forces serial.
  /// Encoded output is bit-identical for every value.
  int encode_threads = 0;
  /// Observability context (non-owning; null = unobserved). The agent
  /// forwards it to its encoder, uplink, and edge server, and emits
  /// per-stage spans (MV harvest, preprocess/eta, foreground, QP
  /// assignment, encode, transmit, MOT fallback) plus "agent.*" metrics.
  /// Stage spans are recorded from the calling thread onto fixed tracks,
  /// so a same-seed run observes identically for every encode_threads.
  obs::ObsContext* obs = nullptr;
};

/// The RoI sidecar of one encoded frame: its MB grid plus the FE hulls.
/// Motion and SKIP flags are not repeated; the edge decodes them.
[[nodiscard]] roi::RoiMetadata roi_sidecar(const codec::EncodedFrame& encoded,
                                           const ForegroundResult& fg,
                                           int width, int height);

class DiveAgent final : public AnalyticsScheme {
 public:
  /// The agent owns its encoder; uplink and server are shared with the
  /// harness that constructs the experiment.
  DiveAgent(DiveConfig config, codec::EncoderConfig encoder_config,
            geom::PinholeCamera camera, std::shared_ptr<net::Uplink> uplink,
            std::shared_ptr<edge::EdgeServer> server);

  FrameOutcome process_frame(const video::Frame& frame,
                             util::SimTime capture_time) override;

  /// Most recent preprocessing/foreground state (exposed for the
  /// component-level benchmarks and examples).
  [[nodiscard]] const PreprocessResult& last_preprocess() const {
    return last_pre_;
  }
  [[nodiscard]] const ForegroundResult& last_foreground() const {
    return last_fg_;
  }
  [[nodiscard]] int last_background_delta() const { return last_delta_; }
  /// The frame the last process_frame() call encoded (uploaded or not).
  [[nodiscard]] const codec::EncodedFrame& last_encoded() const {
    return last_encoded_;
  }

 private:
  DiveConfig config_;
  codec::Encoder encoder_;
  geom::PinholeCamera camera_;
  AgentUplink uplink_;
  std::shared_ptr<edge::EdgeServer> server_;

  Preprocessor preprocessor_;
  ForegroundExtractor extractor_;
  QpAssigner qp_assigner_;
  OfflineTracker tracker_;

  edge::DetectionList last_detections_;
  PreprocessResult last_pre_;
  ForegroundResult last_fg_;
  int last_delta_ = 0;
  codec::EncodedFrame last_encoded_;
  bool need_resync_ = false;  ///< next upload must be intra (after a drop)
  std::uint64_t frame_seq_ = 0;  ///< frames processed; ledger frame index
};

}  // namespace dive::core
