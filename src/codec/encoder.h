// Block video encoder: I/P GoP structure, per-macroblock QP via offset
// maps, motion-compensated prediction, 8x8 DCT + quantization, Exp-Golomb
// entropy coding — the "basic video encoding operation" the paper assumes
// on the mobile agent (Sec. II-A/II-B), plus byte-budget targeting used by
// DiVE's Adaptive Video Encoding.
//
// Threading: motion search and the per-macroblock transform/quantize/
// reconstruct loops of inter frames run on a fixed worker pool
// (EncoderConfig::threads, DIVE_THREADS). Bitstream emission stays a
// serial raster-order pass over precomputed per-macroblock levels, so the
// encoded bytes are bit-identical for every thread count. Intra frames
// are inherently serial (DC prediction reads the running reconstruction).
//
// Rate control: encode_to_target binary-searches the base QP. The
// QP-independent work of an inter frame — motion field, motion-
// compensated predictions, and the DCT coefficients of the prediction
// residual — is computed once per frame; each QP trial only re-quantizes,
// entropy-codes, and reconstructs. Trials are additionally memoized by QP
// for the duration of the frame, so no QP is ever encoded twice.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/dct.h"
#include "codec/motion_search.h"
#include "codec/quant.h"
#include "codec/types.h"
#include "obs/frame_context.h"
#include "util/thread_pool.h"
#include "video/frame.h"

namespace dive::obs {
struct ObsContext;
class Counter;
class Distribution;
}  // namespace dive::obs

namespace dive::codec {

struct EncoderConfig {
  int width = 0;   ///< must be a multiple of 16
  int height = 0;  ///< must be a multiple of 16
  MotionSearchConfig search{};
  int gop_length = 120;         ///< distance between intra frames
  int rate_iterations = 5;      ///< QP trials for encode_to_target
  /// Worker lanes (including the calling thread) for motion search and
  /// the inter-frame macroblock loop. 0 = DIVE_THREADS env var, else all
  /// hardware threads; 1 = fully serial. Output is bit-identical for
  /// every value.
  int threads = 0;
  /// Per-macroblock SKIP mode: when the luma SAD at the PREDICTED motion
  /// vector (the left-neighbor chain the bitstream codes against) is
  /// below skip_threshold, the macroblock is coded as a one-bit SKIP —
  /// the decoder copies the reference at the predicted MV and no
  /// residual is transformed, quantized, or emitted. Changes the
  /// bitstream (that is the point); deterministic for every thread
  /// count / kernel setting.
  bool skip_blocks = true;
  /// Luma SAD budget (16x16, so 512 = 2 per pixel) under which a
  /// macroblock is forced to SKIP. Only meaningful with skip_blocks.
  int skip_threshold = 512;
  /// Average-luma scene-change detection (the DSV encoders' heuristic):
  /// when the mean luma of the incoming frame differs from the current
  /// reference's by more than scene_change_luma_delta, the frame is
  /// coded intra — a global luma step (tunnel entry/exit, lighting cut)
  /// would otherwise leave every macroblock with a large DC residual and
  /// defeat SKIP/temporal prediction for the rest of the GoP. Forcing
  /// the I-frame resets the temporal chain exactly like a cold start.
  bool scene_change_detection = true;
  /// Mean-luma step (DN, 0..255 scale) that triggers the cut detector.
  double scene_change_luma_delta = 24.0;
};

/// Accounting of the most recent encode_to_target call.
struct RateControlStats {
  int trials_attempted = 0;  ///< QP points the search evaluated
  int trials_encoded = 0;    ///< trials that ran quantize + entropy coding
  int trials_reused = 0;     ///< trials served from the per-frame QP cache
  /// Motion-compensate + forward-DCT passes over the whole frame: 1 per
  /// inter frame regardless of trial count; every intra trial is a full
  /// pass.
  int full_transform_passes = 0;
};

struct EncodedFrame {
  std::vector<std::uint8_t> data;
  FrameType type = FrameType::kIntra;
  int base_qp = 0;
  /// Motion field the encoder CODED (empty for intra frames): SKIP
  /// macroblocks carry their predicted MV, matching what the decoder
  /// reconstructs. The searched field is available via analyze_motion.
  MotionField motion;
  double psnr_y = 0.0;  ///< reconstruction quality vs. the source
  /// Macroblocks coded as SKIP (inter frames; threshold-forced and
  /// natural skips both count).
  int skipped_mbs = 0;
  /// Per-macroblock SKIP flags in raster order (inter frames; empty for
  /// intra). Exactly the skip bits the bitstream carries — free
  /// compression metadata that roi::RoiMetadata ships to the edge.
  std::vector<std::uint8_t> skip;

  [[nodiscard]] std::size_t bytes() const { return data.size(); }
};

class Encoder {
 public:
  explicit Encoder(EncoderConfig config);

  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  [[nodiscard]] const EncoderConfig& config() const { return config_; }
  [[nodiscard]] int frame_index() const { return frame_index_; }
  [[nodiscard]] bool has_reference() const { return has_reference_; }
  [[nodiscard]] const video::Frame& reference() const { return reference_; }

  /// Motion analysis of `src` against the current reference without
  /// encoding (used by DiVE preprocessing, which needs MVs before the QP
  /// map exists). Empty field when no reference frame is available yet.
  [[nodiscard]] MotionField analyze_motion(const video::Frame& src) const;

  /// Encodes at a fixed base QP (CRF-style). `offsets`, when given, adds a
  /// per-macroblock delta. `motion` reuses a precomputed field (must come
  /// from analyze_motion on the same source). Advances codec state.
  EncodedFrame encode(const video::Frame& src, int base_qp,
                      const QpOffsetMap* offsets = nullptr,
                      const MotionField* motion = nullptr);

  /// Encodes the frame to fit `target_bytes`: searches base QP over a few
  /// trials (single motion-estimation pass), commits the best-fitting
  /// trial. The result may exceed the target if even QP 51 cannot fit.
  EncodedFrame encode_to_target(const video::Frame& src,
                                std::size_t target_bytes,
                                const QpOffsetMap* offsets = nullptr,
                                const MotionField* motion = nullptr);

  /// Force the next encoded frame to be intra.
  void request_intra() { force_intra_ = true; }

  /// Attaches an observability context (non-owning, null detaches):
  /// "codec.*" metrics plus motion-search/plan/trial spans on
  /// obs::kTrackCodec. Metric handles are resolved once here, so the
  /// per-frame hot path pays only pointer checks; spans additionally
  /// require the context's tracer to be enabled. All spans are emitted
  /// from the calling thread — never from pool workers — so recorded
  /// observations are identical for every thread count.
  void set_obs(obs::ObsContext* obs);

  /// Per-frame causal identity: spans emitted while encoding the next
  /// frame carry this context's flow id, linking them to the frame's
  /// uplink/serve/edge spans across tracks. The harness mints one
  /// context per captured frame; an unminted (default) context leaves
  /// spans untagged. Plain data — survives DIVE_OBS_DISABLED builds.
  void set_frame_context(const obs::FrameTraceContext& ctx) {
    frame_ctx_ = ctx;
  }

  /// Trial accounting of the latest encode_to_target call.
  [[nodiscard]] const RateControlStats& rate_control_stats() const {
    return rc_stats_;
  }

  /// Lifetime accounting of SKIP coding across committed inter frames.
  struct SkipStats {
    long skipped_mbs = 0;  ///< macroblocks coded as SKIP
    long inter_mbs = 0;    ///< all inter macroblocks committed
  };
  [[nodiscard]] const SkipStats& skip_stats() const { return skip_stats_; }

  /// Scene cuts detected so far (frames forced intra by the average-luma
  /// change heuristic; GoP-boundary and requested intras don't count).
  [[nodiscard]] long scene_change_count() const { return scene_changes_; }

  /// Resolved worker-lane count (after DIVE_THREADS / hardware defaults).
  [[nodiscard]] int thread_count() const {
    return pool_ ? pool_->thread_count() : 1;
  }

 private:
  struct Trial {
    std::vector<std::uint8_t> data;
    video::Frame recon;
    int base_qp = 0;
    int skipped_mbs = 0;
    std::vector<std::uint8_t> skip;  ///< per-mb emitted SKIP flags
  };

  /// QP-independent per-frame state of an inter frame: the SKIP decision
  /// and effective (coded) motion field, and for every 8x8 block (6 per
  /// macroblock: 4 luma + U + V) the motion-compensated prediction and
  /// the forward DCT of the prediction residual. SKIP macroblocks carry
  /// predictions at the predicted MV and never pay the residual DCT.
  struct InterPlan {
    std::vector<Block8x8> preds;   ///< mb_count * 6, block-major
    std::vector<Block8x8> coeffs;  ///< mb_count * 6, block-major
    std::vector<std::uint8_t> skip;  ///< per-mb SKIP decision
    /// Coded field: SKIP entries replaced by their predicted MV (the
    /// exact field the decoder will reconstruct).
    MotionField eff_motion;
  };

  /// Output of the parallel half of an inter trial (quantize +
  /// reconstruct); the serial emission pass reads it without touching
  /// the reconstruction, so the reconstruction can become the reference
  /// before emission.
  struct PreparedInter {
    std::vector<QuantBlock> levels;  ///< mb_count * 6, block-major
    std::vector<int> cbp;            ///< coded-block pattern per mb
    std::vector<int> qps;            ///< resolved QP per mb
    video::Frame recon;
    int base_qp = 0;
  };

  /// Frame-type decision for `src`: forced/GoP intra checks plus the
  /// average-luma scene-change detector (which needs the source pixels).
  /// Non-const: detected cuts are counted.
  [[nodiscard]] FrameType next_frame_type(const video::Frame& src);
  [[nodiscard]] InterPlan build_inter_plan(const video::Frame& src,
                                           const MotionField& motion) const;
  [[nodiscard]] PreparedInter prepare_inter_trial(const InterPlan& plan,
                                                  int base_qp,
                                                  const QpOffsetMap* offsets)
      const;
  [[nodiscard]] std::vector<std::uint8_t> emit_inter_trial(
      const PreparedInter& prep, const InterPlan& plan) const;
  [[nodiscard]] std::vector<std::uint8_t> skip_map(const PreparedInter& prep,
                                                   const InterPlan& plan)
      const;
  [[nodiscard]] Trial run_inter_trial(const InterPlan& plan, int base_qp,
                                      const QpOffsetMap* offsets) const;
  [[nodiscard]] Trial run_intra_trial(const video::Frame& src, int base_qp,
                                      const QpOffsetMap* offsets) const;

  /// Finalizes the frame: PSNR against reference_ (which must already
  /// hold this frame's reconstruction), codec-state bookkeeping, obs.
  /// `motion` is the CODED field (InterPlan::eff_motion for inter);
  /// `skip` the emitted per-mb SKIP flags (inter only, may be empty).
  EncodedFrame finish_frame(std::vector<std::uint8_t> data, int base_qp,
                            FrameType type, const MotionField* motion,
                            const video::Frame& src,
                            std::vector<std::uint8_t> skip = {});

  /// Cached metric handles (see set_obs); all null when unobserved.
  struct ObsHandles {
    obs::Counter* frames = nullptr;
    obs::Counter* motion_searches = nullptr;
    obs::Counter* trials_attempted = nullptr;
    obs::Counter* trials_encoded = nullptr;
    obs::Counter* trials_reused = nullptr;
    obs::Counter* full_passes = nullptr;
    obs::Counter* skip_skipped_mbs = nullptr;
    obs::Counter* skip_inter_mbs = nullptr;
    obs::Counter* scene_cuts = nullptr;
    obs::Distribution* bytes_per_frame = nullptr;
    obs::Distribution* base_qp = nullptr;
    obs::Distribution* psnr_y = nullptr;
  };

  EncoderConfig config_;
  MotionSearcher searcher_;
  obs::ObsContext* obs_ = nullptr;
  ObsHandles obs_handles_;
  obs::FrameTraceContext frame_ctx_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when serial
  video::Frame reference_;
  bool has_reference_ = false;
  bool force_intra_ = false;
  int frame_index_ = 0;
  int last_qp_ = 30;
  RateControlStats rc_stats_;
  SkipStats skip_stats_;
  long scene_changes_ = 0;
};

}  // namespace dive::codec
