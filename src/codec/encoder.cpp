#include "codec/encoder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/bitstream.h"
#include "codec/block_io.h"
#include "codec/block_pixels.h"
#include "codec/dct.h"
#include "codec/quant.h"
#include "codec/reconstruct.h"
#include "codec/ref_planes.h"
#include "obs/obs.h"
#include "video/image_ops.h"

namespace dive::codec {

namespace {

constexpr int kMb = kMacroblockSize;
/// prepare_inter_trial's bit limit when no trial may be cut.
constexpr std::size_t kNoBitLimit = std::numeric_limits<std::size_t>::max();

/// Forward DCT of the (src - pred) residual of one 8x8 block.
void residual_dct(const video::Plane& src, int bx, int by,
                  const Block8x8& pred, Block8x8& coeffs) {
  Block8x8 residual;
  residual_block_u8(
      src.data.data() + static_cast<std::size_t>(by) * src.width + bx,
      src.width, pred, residual);
  forward_dct(residual, coeffs);
}

/// Largest |coeff| of a block (four running maxima, so the compares do
/// not form one serial chain).
double max_abs(const Block8x8& coeffs) {
  std::array<double, 4> m{};
  for (std::size_t i = 0; i < 64; i += 4)
    for (std::size_t j = 0; j < 4; ++j)
      m[j] = std::max(m[j], std::abs(coeffs[i + j]));
  return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

/// Transform + quantize the (src - pred) residual of one 8x8 block.
/// Returns the nonzero levels by zigzag position (write_block's mask), so
/// zero means the block is not coded.
std::uint64_t transform_block(const video::Plane& src, int bx, int by,
                              const Block8x8& pred, int qp,
                              QuantBlock& levels) {
  Block8x8 coeffs;
  residual_dct(src, bx, by, pred, coeffs);
  return zigzag_scan(quantize(coeffs, qp, levels));
}

int mb_qp(int base_qp, const QpOffsetMap* offsets, int col, int row) {
  if (offsets == nullptr || offsets->empty()) return base_qp;
  return std::clamp(base_qp + offsets->at(col, row), kMinQp, kMaxQp);
}

}  // namespace

const char* to_string(MotionSearchMethod m) {
  switch (m) {
    case MotionSearchMethod::kDia: return "dia";
    case MotionSearchMethod::kHex: return "hex";
    case MotionSearchMethod::kUmh: return "umh";
    case MotionSearchMethod::kTesa: return "tesa";
    case MotionSearchMethod::kEsa: return "esa";
    case MotionSearchMethod::kHme: return "hme";
  }
  return "?";
}

Encoder::Encoder(EncoderConfig config)
    : config_(config), searcher_(config.search) {
  if (config_.width <= 0 || config_.height <= 0 ||
      config_.width % kMb != 0 || config_.height % kMb != 0) {
    throw std::invalid_argument(
        "Encoder: frame dimensions must be positive multiples of 16");
  }
  if (util::ThreadPool::resolve_thread_count(config_.threads) > 1)
    pool_ = std::make_unique<util::ThreadPool>(config_.threads);
}

void Encoder::set_obs(obs::ObsContext* obs) {
  obs_ = obs;
  obs_handles_ = {};
  if (obs == nullptr) return;
  auto& m = obs->metrics;
  obs_handles_.frames = &m.counter("codec.frames");
  obs_handles_.motion_searches = &m.counter("codec.motion_searches");
  obs_handles_.trials_attempted = &m.counter("codec.rc.trials_attempted");
  obs_handles_.full_passes = &m.counter("codec.rc.full_transform_passes");
  obs_handles_.trials_cut = &m.counter("codec.rc.trials_cut");
  obs_handles_.skip_skipped_mbs = &m.counter("codec.skip.skipped_mbs");
  obs_handles_.skip_inter_mbs = &m.counter("codec.skip.inter_mbs");
  obs_handles_.scene_cuts = &m.counter("codec.scene_cuts");
  obs_handles_.bytes_per_frame =
      &m.distribution("codec.bytes_per_frame", "bytes");
  obs_handles_.base_qp = &m.distribution("codec.base_qp", "qp");
  obs_handles_.psnr_y = &m.distribution("codec.psnr_y", "dB");
}

MotionField Encoder::analyze_motion(const video::Frame& src) const {
  if (!has_reference_) return {};
  return search_motion(src, RefPlanes(reference_.y, searcher_.reference_pad()));
}

MotionField Encoder::search_motion(const video::Frame& src,
                                   const RefPlanes& ref_y) const {
  DIVE_OBS_SPAN(span, obs_, "codec.motion_search", obs::kTrackCodec);
  span.flow(frame_ctx_);
  if (obs_handles_.motion_searches != nullptr)
    obs_handles_.motion_searches->add();
  return searcher_.search_frame(src.y, ref_y, pool_.get());
}

namespace {
/// Mean luma of a plane via an exact integer sum (deterministic: no
/// float-reduction ordering hazards on this path).
double mean_luma(const video::Plane& p) {
  std::uint64_t sum = 0;
  for (const std::uint8_t v : p.data) sum += v;
  const auto n = static_cast<std::uint64_t>(p.width) *
                 static_cast<std::uint64_t>(p.height);
  return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}
}  // namespace

FrameType Encoder::next_frame_type(const video::Frame& src) {
  if (force_intra_ || !has_reference_) return FrameType::kIntra;
  if (config_.gop_length > 0 && frame_index_ % config_.gop_length == 0)
    return FrameType::kIntra;
  const double step = std::abs(mean_luma(src.y) - reference_mean_luma_);
  if (step > kSceneChangeLumaDelta) {
    ++scene_changes_;
    if (obs_handles_.scene_cuts != nullptr) obs_handles_.scene_cuts->add();
    return FrameType::kIntra;
  }
  return FrameType::kInter;
}

Encoder::InterPlan Encoder::build_inter_plan(
    const video::Frame& src, const MotionField* motion) const {
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  const std::size_t mb_count =
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows);

  // The luma reference planes are scratch of this call (DESIGN §11):
  // they serve the motion search (when no field was given), the SKIP
  // check and luma MC, and die with the plan's construction. Chroma MC
  // reads the reference frame on demand (mc_predict_u8).
  const int pad = searcher_.reference_pad();
  const RefPlanes ref_y(reference_.y, pad);
  MotionField searched;
  if (motion == nullptr) {
    searched = search_motion(src, ref_y);
    motion = &searched;
  }

  DIVE_OBS_SPAN(span, obs_, "codec.inter_plan", obs::kTrackCodec);
  span.flow(frame_ctx_);

  // preds and coeffs are not zero-filled (codec/scratch.h): every
  // prediction is written below, and coefficients are written for every
  // block of a non-SKIP macroblock, the only ones a trial reads.
  InterPlan plan;
  plan.preds.resize(mb_count * kBlocksPerMb);
  plan.coeffs.resize(mb_count * kBlocksPerMb);
  plan.max_abs.assign(mb_count * kBlocksPerMb, 0.0);
  plan.skip.assign(mb_count, 0);
  plan.eff_motion = *motion;

  // SKIP decisions and predictions/residual DCTs, row-parallel. The SKIP
  // chain is serial WITHIN a row (the predicted MV is the previous
  // macroblock's coded MV, and the predictor chain resets per row —
  // mirroring bitstream emission), so rows stay independent and the
  // decisions are bit-identical for every thread count. A skipped
  // macroblock is predicted at the predicted MV and never pays the
  // residual DCT; its coefficients (and their max |coeff|) stay zero.
  const bool skip_on = config_.skip_blocks;
  const Sad16Fn sad_fn = searcher_.sad_fn();
  const auto plan_row = [&](int row) {
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      const MotionVector pred = predicted_mv(plan.eff_motion, col, row);
      MotionVector mv = motion->at(col, row);
      bool skip = false;
      if (skip_on) {
        const std::uint32_t pred_sad =
            sad_16x16(src.y, ref_y, col * kMb, row * kMb, pred, sad_fn);
        skip = pred_sad < kSkipThreshold;
      }
      if (skip) {
        plan.skip[mb] = 1;
        mv = pred;
      }
      plan.eff_motion.at(col, row) = mv;
      predict_inter_mb(ref_y, reference_, col, row, mv, &plan.preds[base]);
      if (skip) continue;
      const auto blocks = mb_blocks(col, row);
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
        const std::size_t i = base + static_cast<std::size_t>(b);
        residual_dct(plane_of(src, blk.plane), blk.bx, blk.by, plan.preds[i],
                     plan.coeffs[i]);
        plan.max_abs[i] = max_abs(plan.coeffs[i]);
      }
    }
  };
  if (pool_) pool_->parallel_for(0, mb_rows, plan_row);
  else for (int row = 0; row < mb_rows; ++row) plan_row(row);
  return plan;
}

bool Encoder::prepare_inter_trial(const InterPlan& plan, int base_qp,
                                  const QpOffsetMap* offsets,
                                  std::size_t bit_limit, Trial& trial) const {
  base_qp = std::clamp(base_qp, kMinQp, kMaxQp);
  DIVE_OBS_SPAN(span, obs_, "codec.inter_trial", obs::kTrackCodec);
  span.flow(frame_ctx_);
  span.arg("qp", base_qp);
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  const std::size_t mb_count =
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows);

  trial.base_qp = base_qp;
  PreparedInter& prep = trial.prep;
  prep.base_qp = base_qp;

  // Parallel by row: quantize the precomputed residual coefficients at
  // this trial's QP, size the coded blocks, and decide each macroblock's
  // SKIP bit. Each row writes a disjoint slice of the arrays, and every
  // per-mb entry, so a previous trial's storage is reused as is. Levels
  // and scan masks are written only for coded blocks and read only where
  // the cbp bit is set, so they are not zero-filled; a block whose
  // largest |coeff| lies inside the dead zone quantizes to all zeros, so
  // it is never visited. Nothing is reconstructed here: only the
  // committed trial is, by reconstruct_inter.
  //
  // `block_bits` sums the completed rows' block bits. Once it passes
  // `bit_limit` a row that has not started returns at once. The sum ends
  // above the limit exactly when the whole trial's block bits do (a row
  // is only skipped after the sum has passed it), so whether a trial is
  // cut does not depend on the thread count.
  prep.levels.resize(mb_count * kBlocksPerMb);
  prep.scans.resize(mb_count * kBlocksPerMb);
  prep.cbp.resize(mb_count);
  prep.block_bits.resize(mb_count);
  prep.qps.resize(mb_count);
  prep.skip.resize(mb_count);

  std::atomic<std::size_t> block_bits{0};
  const auto quant_row = [&](int row) {
    if (block_bits.load(std::memory_order_relaxed) > bit_limit) return;
    std::size_t row_bits = 0;
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const int qp = mb_qp(base_qp, offsets, col, row);
      prep.qps[mb] = qp;
      int mask = 0;
      int bits = 0;
      if (plan.skip[mb] == 0) {
        const std::size_t base = mb * kBlocksPerMb;
        const double deadzone = quant_step(qp).deadzone;
        for (int b = 0; b < kBlocksPerMb; ++b) {
          const std::size_t i = base + static_cast<std::size_t>(b);
          if (plan.max_abs[i] <= deadzone) continue;
          const int coded_bits = quantize_block_bits(
              plan.coeffs[i], qp, prep.levels[i], prep.scans[i]);
          if (coded_bits == 0) continue;
          mask |= 1 << b;
          bits += coded_bits;
        }
      }
      prep.cbp[mb] = mask;
      prep.block_bits[mb] = bits;
      row_bits += static_cast<std::size_t>(bits);
      // SKIP bit semantics: "this macroblock's MV equals the predicted MV
      // and it carries no residual" — the decoder copies the reference
      // at the predicted MV. Threshold-forced skips satisfy the
      // condition by construction (build_inter_plan coded them at the
      // predicted MV), so forced and natural skips share one rule.
      const bool at_pred = plan.eff_motion.at(col, row) ==
                           predicted_mv(plan.eff_motion, col, row);
      prep.skip[mb] = at_pred && prep.cbp[mb] == 0;
    }
    block_bits.fetch_add(row_bits, std::memory_order_relaxed);
  };
  if (pool_) pool_->parallel_for(0, mb_rows, quant_row);
  else for (int row = 0; row < mb_rows; ++row) quant_row(row);
  return block_bits.load(std::memory_order_relaxed) <= bit_limit;
}

video::Frame Encoder::reconstruct_inter(const InterPlan& plan,
                                        const PreparedInter& prep) const {
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  video::Frame recon(config_.width, config_.height);
  // Parallel by row, disjoint writes. SKIP macroblocks (cbp 0)
  // reconstruct as the bare prediction — exactly the reference copy the
  // decoder performs.
  const auto recon_row = [&](int row) {
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      reconstruct_inter_mb(recon, col, row, &plan.preds[base],
                           &prep.levels[base], prep.cbp[mb], prep.qps[mb]);
    }
  };
  if (pool_) pool_->parallel_for(0, mb_rows, recon_row);
  else for (int row = 0; row < mb_rows; ++row) recon_row(row);
  return recon;
}

template <class Sink>
void Encoder::code_inter_trial(Sink& sink, const PreparedInter& prep,
                               const InterPlan& plan) const {
  // Serial raster-order pass. This is the only order-dependent state
  // (prev_qp chain, MV prediction), so running it serially keeps the
  // bytes bit-identical for every thread count. It reads only the
  // prepared trial and the plan's coded field, so a rate-control trial
  // can be sized without ever being reconstructed or emitted: a
  // BitCounter adds the block sizes counted while quantizing.
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  write_frame_header(sink,
                     {FrameType::kInter, prep.base_qp, mb_cols, mb_rows});
  int prev_qp = prep.base_qp;
  for (int row = 0; row < mb_rows; ++row) {
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      sink.put_bit(prep.skip[mb] != 0);
      if (prep.skip[mb] != 0) continue;
      const MotionVector mv = plan.eff_motion.at(col, row);
      const MotionVector pred_mv = predicted_mv(plan.eff_motion, col, row);
      sink.put_se(mv.dx - pred_mv.dx);
      sink.put_se(mv.dy - pred_mv.dy);
      sink.put_se(prep.qps[mb] - prev_qp);
      prev_qp = prep.qps[mb];
      sink.put_bits(static_cast<std::uint32_t>(prep.cbp[mb]), 6);
      if constexpr (std::is_same_v<Sink, BitCounter>) {
        sink.add_bits(static_cast<std::size_t>(prep.block_bits[mb]));
      } else {
        const std::size_t base = mb * kBlocksPerMb;
        for (int b = 0; b < kBlocksPerMb; ++b)
          if (prep.cbp[mb] & (1 << b))
            write_block(sink, prep.levels[base + static_cast<std::size_t>(b)],
                        prep.scans[base + static_cast<std::size_t>(b)]);
      }
    }
  }
}

std::size_t Encoder::size_inter_trial(const PreparedInter& prep,
                                      const InterPlan& plan) const {
  BitCounter counter;
  code_inter_trial(counter, prep, plan);
  return counter.byte_count();
}

std::vector<std::uint8_t> Encoder::emit_inter_trial(
    const PreparedInter& prep, const InterPlan& plan) const {
  BitWriter bw;
  code_inter_trial(bw, prep, plan);
  return bw.finish();
}

Encoder::Trial Encoder::run_intra_trial(const video::Frame& src, int base_qp,
                                        const QpOffsetMap* offsets) const {
  base_qp = std::clamp(base_qp, kMinQp, kMaxQp);
  DIVE_OBS_SPAN(span, obs_, "codec.intra_trial", obs::kTrackCodec);
  span.flow(frame_ctx_);
  span.arg("qp", base_qp);
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;

  Trial trial;
  trial.base_qp = base_qp;
  trial.recon = video::Frame(config_.width, config_.height);

  BitWriter bw;
  write_frame_header(bw, {FrameType::kIntra, base_qp, mb_cols, mb_rows});

  // Intra macroblocks DC-predict from the running reconstruction, so
  // transform/emit/reconstruct proceed strictly in raster order.
  int prev_qp = base_qp;
  for (int row = 0; row < mb_rows; ++row) {
    for (int col = 0; col < mb_cols; ++col) {
      const int qp = mb_qp(base_qp, offsets, col, row);
      bw.put_se(qp - prev_qp);
      prev_qp = qp;
      for (const MbBlock& blk : mb_blocks(col, row)) {
        video::Plane& rp = plane_of(trial.recon, blk.plane);
        const Block8x8 pred = dc_predict(rp, blk.bx, blk.by);
        QuantBlock levels;
        const std::uint64_t scan = transform_block(
            plane_of(src, blk.plane), blk.bx, blk.by, pred, qp, levels);
        bw.put_bit(scan != 0);
        if (scan != 0) write_block(bw, levels, scan);
        reconstruct_block(rp, blk.bx, blk.by, pred,
                          scan != 0 ? &levels : nullptr, qp);
      }
    }
  }

  trial.data = bw.finish();
  return trial;
}

EncodedFrame Encoder::commit(Trial trial, const InterPlan* plan,
                             const video::Frame& src) {
  reference_ = plan != nullptr ? reconstruct_inter(*plan, trial.prep)
                               : std::move(trial.recon);
  has_reference_ = true;
  reference_mean_luma_ = mean_luma(reference_.y);

  EncodedFrame out;
  out.data = plan != nullptr ? emit_inter_trial(trial.prep, *plan)
                             : std::move(trial.data);
  out.type = plan != nullptr ? FrameType::kInter : FrameType::kIntra;
  out.base_qp = trial.base_qp;
  out.psnr_y = video::psnr_y(src, reference_);
  if (plan != nullptr) {
    out.motion = plan->eff_motion;
    out.skip = std::move(trial.prep.skip);
    out.skipped_mbs = static_cast<int>(
        std::count(out.skip.begin(), out.skip.end(), std::uint8_t{1}));
  }

  force_intra_ = false;
  ++frame_index_;
  last_qp_ = out.base_qp;

  if (plan != nullptr) {
    const long mb_count = static_cast<long>(config_.width / kMb) *
                          static_cast<long>(config_.height / kMb);
    skip_stats_.skipped_mbs += out.skipped_mbs;
    skip_stats_.inter_mbs += mb_count;
    if (obs_handles_.skip_skipped_mbs != nullptr) {
      obs_handles_.skip_skipped_mbs->add(out.skipped_mbs);
      obs_handles_.skip_inter_mbs->add(mb_count);
    }
  }

  if (obs_handles_.frames != nullptr) {
    obs_handles_.frames->add();
    obs_handles_.bytes_per_frame->add(static_cast<double>(out.bytes()));
    obs_handles_.base_qp->add(out.base_qp);
    obs_handles_.psnr_y->add(out.psnr_y);
  }
  return out;
}

EncodedFrame Encoder::encode(const video::Frame& src, int base_qp,
                             const QpOffsetMap* offsets,
                             const MotionField* motion) {
  if (src.width() != config_.width || src.height() != config_.height)
    throw std::invalid_argument("Encoder::encode: frame size mismatch");
  DIVE_OBS_SPAN(span, obs_, "codec.encode", obs::kTrackCodec);
  span.flow(frame_ctx_);
  span.arg("base_qp", base_qp);
  std::optional<InterPlan> plan;
  if (next_frame_type(src) == FrameType::kInter)
    plan = build_inter_plan(src, motion);
  Trial trial;
  if (plan) {
    (void)prepare_inter_trial(*plan, base_qp, offsets, kNoBitLimit, trial);
  } else {
    trial = run_intra_trial(src, base_qp, offsets);
  }
  return commit(std::move(trial), plan ? &*plan : nullptr, src);
}

EncodedFrame Encoder::encode_to_target(const video::Frame& src,
                                       std::size_t target_bytes,
                                       const QpOffsetMap* offsets,
                                       const MotionField* motion) {
  if (src.width() != config_.width || src.height() != config_.height)
    throw std::invalid_argument("Encoder::encode_to_target: size mismatch");
  DIVE_OBS_SPAN(span, obs_, "codec.encode_to_target", obs::kTrackCodec);
  span.flow(frame_ctx_);
  span.arg("target_bytes", static_cast<long long>(target_bytes));
  rc_stats_ = {};

  // QP-independent work, paid once per inter frame.
  std::optional<InterPlan> plan;
  if (next_frame_type(src) == FrameType::kInter) {
    plan = build_inter_plan(src, motion);
    rc_stats_.full_transform_passes = 1;
  }

  // Binary search over base QP for the best quality that fits the budget.
  // Every evaluated QP leaves [lo, hi], so no QP is tried twice. `chosen`
  // is the trial that would be committed if the search stopped now: the
  // smallest fitting QP, else the largest overshooting one. Later QPs lie
  // inside the narrowed range, so a fitting trial always replaces it and
  // an overshooting one does until something fits. Inter trials are
  // sized by counting bits; only the committed one is emitted. A trial
  // that is not kept lends its storage to the next.
  //
  // After a fit, an overshooting trial can never be committed, so an
  // inter trial stops once its block bits alone pass 8 * target_bytes
  // (saturating): block bits are a lower bound on its size, so such a
  // trial cannot fit. It counts as tried and not fitting, is never
  // swapped into `chosen`, and the next trial rewrites every per-mb entry
  // it left stale.
  const std::size_t fit_limit =
      target_bytes > kNoBitLimit / 8 ? kNoBitLimit : 8 * target_bytes;
  int lo = kMinQp;
  int hi = kMaxQp;
  int qp = std::clamp(last_qp_, kMinQp, kMaxQp);
  Trial chosen;
  Trial trial;
  bool fitted = false;

  for (int iter = 0; iter < kRateIterations; ++iter) {
    ++rc_stats_.trials_attempted;
    // Intra prediction depends on the QP-dependent reconstruction, so an
    // intra trial is always a full pass.
    if (!plan) ++rc_stats_.full_transform_passes;
    bool fits = false;
    if (plan) {
      if (prepare_inter_trial(*plan, qp, offsets,
                              fitted ? fit_limit : kNoBitLimit, trial)) {
        fits = size_inter_trial(trial.prep, *plan) <= target_bytes;
      } else {
        ++rc_stats_.trials_cut;
      }
    } else {
      trial = run_intra_trial(src, qp, offsets);
      fits = trial.data.size() <= target_bytes;
    }
    if (fits) hi = trial.base_qp - 1;
    else lo = trial.base_qp + 1;
    if (fits || !fitted) std::swap(chosen, trial);
    fitted = fitted || fits;
    if (lo > hi) break;
    qp = (lo + hi) / 2;
  }

  span.arg("chosen_qp", chosen.base_qp);
  if (obs_handles_.trials_attempted != nullptr) {
    obs_handles_.trials_attempted->add(rc_stats_.trials_attempted);
    obs_handles_.full_passes->add(rc_stats_.full_transform_passes);
    obs_handles_.trials_cut->add(rc_stats_.trials_cut);
  }
  return commit(std::move(chosen), plan ? &*plan : nullptr, src);
}

}  // namespace dive::codec
