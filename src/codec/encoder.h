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
// residual — is computed once per frame; each QP trial only re-quantizes
// and counts bits, and only the committed trial is emitted and
// reconstructed. The search never revisits a QP. Once a trial has fitted,
// a later trial stops as soon as its block bits alone pass the budget: it
// can no longer be committed (RateControlStats::trials_cut). encode()
// runs the same trial and commit steps at one fixed QP, with no sizing
// pass.
//
// Per-call scratch (the plan's predictions and coefficients, a trial's
// levels and zigzag masks) is sized without zero-filling (codec/
// scratch.h): every element that is read was written first, as DESIGN §7
// lists buffer by buffer. Each coded block is emitted from the zigzag
// nonzero mask its quantizer pass built, not by walking all 64 positions.
//
// Luma references are read through RefPlanes (codec/ref_planes.h), built
// from reference_ once per encode call and dropped with it; chroma MC
// reads reference_ on demand (mc_predict_u8 in codec/reconstruct.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/dct.h"
#include "codec/motion_search.h"
#include "codec/quant.h"
#include "codec/ref_planes.h"
#include "codec/scratch.h"
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

/// QP trials encode_to_target runs per frame.
inline constexpr int kRateIterations = 5;
/// Luma SAD budget (16x16, so 512 = 2 per pixel) under which a macroblock
/// is forced to SKIP when EncoderConfig::skip_blocks is on.
inline constexpr std::uint32_t kSkipThreshold = 512;
/// Average-luma scene-change detection (the DSV encoders' heuristic):
/// when the mean luma of the incoming frame differs from the current
/// reference's by more than this many DN (0..255 scale), the frame is
/// coded intra — a global luma step (tunnel entry/exit, lighting cut)
/// would otherwise leave every macroblock with a large DC residual and
/// defeat SKIP/temporal prediction for the rest of the GoP. Forcing
/// the I-frame resets the temporal chain exactly like a cold start.
inline constexpr double kSceneChangeLumaDelta = 24.0;

struct EncoderConfig {
  int width = 0;   ///< must be a multiple of 16
  int height = 0;  ///< must be a multiple of 16
  MotionSearchConfig search{};
  int gop_length = 120;         ///< distance between intra frames
  /// Worker lanes (including the calling thread) for motion search and
  /// the inter-frame macroblock loop. 0 = DIVE_THREADS env var, else all
  /// hardware threads; 1 = fully serial. Output is bit-identical for
  /// every value.
  int threads = 0;
  /// Per-macroblock SKIP mode: when the luma SAD at the PREDICTED motion
  /// vector (the left-neighbor chain the bitstream codes against) is
  /// below kSkipThreshold, the macroblock is coded as a one-bit SKIP —
  /// the decoder copies the reference at the predicted MV and no
  /// residual is transformed, quantized, or emitted. Changes the
  /// bitstream (that is the point); deterministic for every thread
  /// count / kernel setting.
  bool skip_blocks = true;
};

/// Accounting of the most recent encode_to_target call.
struct RateControlStats {
  int trials_attempted = 0;  ///< QP points the search evaluated (all distinct)
  /// Motion-compensate + forward-DCT passes over the whole frame: 1 per
  /// inter frame regardless of trial count; every intra trial is a full
  /// pass.
  int full_transform_passes = 0;
  /// Inter trials stopped early: some earlier trial of the frame fitted
  /// and this one's block bits alone passed 8 * target_bytes, so it could
  /// not fit and was never counted in full (included in
  /// trials_attempted).
  int trials_cut = 0;
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

  /// QP-independent per-frame state of an inter frame: the SKIP decision
  /// and effective (coded) motion field, and for every 8x8 block (6 per
  /// macroblock: 4 luma + U + V) the motion-compensated prediction and
  /// the forward DCT of the prediction residual. SKIP macroblocks carry
  /// predictions at the predicted MV and never pay the residual DCT.
  struct InterPlan {
    /// mb_count * 6, block-major; every block is written.
    ScratchVector<Block8x8> preds;
    /// mb_count * 6, block-major; written for non-SKIP macroblocks only,
    /// read only where max_abs passes the dead zone (never for SKIP).
    ScratchVector<Block8x8> coeffs;
    std::vector<double> max_abs;   ///< max |coeff| per block, 0 for SKIP
    std::vector<std::uint8_t> skip;  ///< per-mb threshold-forced SKIP
    /// Coded field: SKIP entries replaced by their predicted MV (the
    /// exact field the decoder will reconstruct).
    MotionField eff_motion;
  };

  /// Output of the parallel half of an inter trial: quantized levels,
  /// coded-block pattern, coded-block bits, QP and emitted SKIP bit per
  /// macroblock. Enough to size the trial for rate control and, for the
  /// committed trial only, to emit and reconstruct it.
  struct PreparedInter {
    /// mb_count * 6, block-major. Both are written for coded blocks only
    /// and read only where the cbp bit is set.
    ScratchVector<QuantBlock> levels;
    ScratchVector<std::uint64_t> scans;  ///< nonzero levels by zigzag position
    std::vector<int> cbp;            ///< coded-block pattern per mb
    std::vector<int> block_bits;     ///< bits of the coded blocks per mb
    std::vector<int> qps;            ///< resolved QP per mb
    std::vector<std::uint8_t> skip;  ///< emitted SKIP bit per mb
    int base_qp = 0;
  };

  /// One rate-control trial. An intra trial carries its bytes and its
  /// reconstruction (DC prediction needs it while coding); an inter trial
  /// carries the levels its bytes and reconstruction are built from if it
  /// is committed.
  struct Trial {
    std::vector<std::uint8_t> data;  ///< intra only
    int base_qp = 0;
    video::Frame recon;  ///< intra only
    PreparedInter prep;  ///< inter only
  };

  /// Frame-type decision for `src`: forced/GoP intra checks plus the
  /// average-luma scene-change detector (which needs the source pixels).
  /// Non-const: detected cuts are counted.
  [[nodiscard]] FrameType next_frame_type(const video::Frame& src);
  /// Motion search against `ref_y`, with the codec.motion_search span.
  [[nodiscard]] MotionField search_motion(const video::Frame& src,
                                          const RefPlanes& ref_y) const;
  /// Builds this call's reference planes, searches motion unless
  /// `motion` is given, and computes the QP-independent plan.
  [[nodiscard]] InterPlan build_inter_plan(const video::Frame& src,
                                           const MotionField* motion) const;
  /// The parallel half of an inter trial at `base_qp`, into `trial`
  /// (reusing its storage). Returns false when the trial was cut: its
  /// block bits passed `bit_limit`, so rows may have been left unprepared
  /// and the trial must be neither sized nor committed.
  [[nodiscard]] bool prepare_inter_trial(const InterPlan& plan, int base_qp,
                                         const QpOffsetMap* offsets,
                                         std::size_t bit_limit,
                                         Trial& trial) const;
  /// Reconstruction of an inter trial (row-parallel), run once per frame
  /// on the committed trial.
  [[nodiscard]] video::Frame reconstruct_inter(const InterPlan& plan,
                                               const PreparedInter& prep)
      const;
  /// The serial bitstream syntax of an inter trial into a BitWriter or a
  /// BitCounter, so sizing and emission cannot disagree.
  template <class Sink>
  void code_inter_trial(Sink& sink, const PreparedInter& prep,
                        const InterPlan& plan) const;
  /// Bytes the trial would emit, counted without emitting.
  [[nodiscard]] std::size_t size_inter_trial(const PreparedInter& prep,
                                             const InterPlan& plan) const;
  [[nodiscard]] std::vector<std::uint8_t> emit_inter_trial(
      const PreparedInter& prep, const InterPlan& plan) const;
  [[nodiscard]] Trial run_intra_trial(const video::Frame& src, int base_qp,
                                      const QpOffsetMap* offsets) const;

  /// Commits `trial` as the frame: its reconstruction becomes
  /// reference_ (an inter trial is emitted and reconstructed from `plan`,
  /// which is null for intra frames), then PSNR against `src`,
  /// codec-state bookkeeping and obs.
  EncodedFrame commit(Trial trial, const InterPlan* plan,
                      const video::Frame& src);

  /// Cached metric handles (see set_obs); all null when unobserved.
  struct ObsHandles {
    obs::Counter* frames = nullptr;
    obs::Counter* motion_searches = nullptr;
    obs::Counter* trials_attempted = nullptr;
    obs::Counter* full_passes = nullptr;
    obs::Counter* trials_cut = nullptr;
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
  double reference_mean_luma_ = 0.0;  ///< scene-cut detector's input
  bool force_intra_ = false;
  int frame_index_ = 0;
  int last_qp_ = 30;
  RateControlStats rc_stats_;
  SkipStats skip_stats_;
  long scene_changes_ = 0;
};

}  // namespace dive::codec
