#include "codec/encoder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codec/bitstream.h"
#include "codec/block_io.h"
#include "codec/dct.h"
#include "codec/quant.h"
#include "obs/obs.h"
#include "video/image_ops.h"

namespace dive::codec {

namespace {

constexpr int kMb = kMacroblockSize;
constexpr int kBlocksPerMb = 6;  ///< 4 luma 8x8 + U + V

std::uint8_t clamp_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

/// Mean of the reconstructed samples above and left of the 8x8 block at
/// pixel origin (bx, by). Mirrors H.264 DC intra prediction; the decoder
/// runs the identical function on its own reconstruction.
double dc_predict(const video::Plane& recon, int bx, int by) {
  double acc = 0.0;
  int n = 0;
  if (by > 0) {
    for (int x = 0; x < kBlockSize; ++x) {
      acc += recon.at(bx + x, by - 1);
      ++n;
    }
  }
  if (bx > 0) {
    for (int y = 0; y < kBlockSize; ++y) {
      acc += recon.at(bx - 1, by + y);
      ++n;
    }
  }
  return n > 0 ? acc / n : 128.0;
}

/// Motion-compensated 8x8 prediction block from a reference plane;
/// (hdx, hdy) is the displacement in half-pel units of that plane.
Block8x8 mc_predict(const video::Plane& ref, int bx, int by, int hdx,
                    int hdy) {
  Block8x8 pred;
  for (int y = 0; y < kBlockSize; ++y)
    for (int x = 0; x < kBlockSize; ++x)
      pred[static_cast<std::size_t>(y * kBlockSize + x)] =
          static_cast<double>(half_pel_sample(ref, 2 * (bx + x) - hdx,
                                              2 * (by + y) - hdy));
  return pred;
}

Block8x8 const_predict(double v) {
  Block8x8 p;
  p.fill(v);
  return p;
}

/// Forward DCT of the (src - pred) residual of one 8x8 block.
void residual_dct(const video::Plane& src, int bx, int by,
                  const Block8x8& pred, Block8x8& coeffs) {
  Block8x8 residual;
  for (int y = 0; y < kBlockSize; ++y)
    for (int x = 0; x < kBlockSize; ++x)
      residual[static_cast<std::size_t>(y * kBlockSize + x)] =
          static_cast<double>(src.at(bx + x, by + y)) -
          pred[static_cast<std::size_t>(y * kBlockSize + x)];
  forward_dct(residual, coeffs);
}

/// Transform + quantize the (src - pred) residual of one 8x8 block.
/// Returns true when any level is nonzero.
bool transform_block(const video::Plane& src, int bx, int by,
                     const Block8x8& pred, int qp, QuantBlock& levels) {
  Block8x8 coeffs;
  residual_dct(src, bx, by, pred, coeffs);
  quantize(coeffs, qp, levels);
  return !all_zero(levels);
}

/// Reconstruct one 8x8 block into `recon` from prediction + (optional)
/// coded levels.
void reconstruct_block(video::Plane& recon, int bx, int by,
                       const Block8x8& pred, const QuantBlock* levels,
                       int qp) {
  Block8x8 res{};
  if (levels != nullptr) {
    Block8x8 deq;
    dequantize(*levels, qp, deq);
    inverse_dct(deq, res);
  }
  for (int y = 0; y < kBlockSize; ++y)
    for (int x = 0; x < kBlockSize; ++x)
      recon.at(bx + x, by + y) =
          clamp_pixel(pred[static_cast<std::size_t>(y * kBlockSize + x)] +
                      res[static_cast<std::size_t>(y * kBlockSize + x)]);
}

/// Pixel geometry of the 6 coded 8x8 blocks of a macroblock.
struct BlockGeometry {
  int bx, by;
  bool chroma;
};

std::array<BlockGeometry, kBlocksPerMb> mb_blocks(int col, int row) {
  const int px = col * kMb;
  const int py = row * kMb;
  const int cx = px / 2;
  const int cy = py / 2;
  return {{{px, py, false},
           {px + 8, py, false},
           {px, py + 8, false},
           {px + 8, py + 8, false},
           {cx, cy, true},
           {cx, cy, true}}};
}

void write_frame_header(BitWriter& bw, FrameType type, int base_qp,
                        int mb_cols, int mb_rows) {
  bw.put_bits(0xD1, 8);  // magic
  bw.put_bit(type == FrameType::kInter);
  bw.put_bits(static_cast<std::uint32_t>(base_qp), 6);
  bw.put_ue(static_cast<std::uint32_t>(mb_cols));
  bw.put_ue(static_cast<std::uint32_t>(mb_rows));
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
  obs_handles_.trials_encoded = &m.counter("codec.rc.trials_encoded");
  obs_handles_.trials_reused = &m.counter("codec.rc.trials_reused");
  obs_handles_.full_passes = &m.counter("codec.rc.full_transform_passes");
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
  DIVE_OBS_SPAN(span, obs_, "codec.motion_search", obs::kTrackCodec);
  span.flow(frame_ctx_);
  if (obs_handles_.motion_searches != nullptr)
    obs_handles_.motion_searches->add();
  return searcher_.search_frame(src.y, reference_.y, pool_.get());
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
  if (config_.scene_change_detection && config_.scene_change_luma_delta > 0.0) {
    const double step =
        std::abs(mean_luma(src.y) - mean_luma(reference_.y));
    if (step > config_.scene_change_luma_delta) {
      ++scene_changes_;
      if (obs_handles_.scene_cuts != nullptr) obs_handles_.scene_cuts->add();
      return FrameType::kIntra;
    }
  }
  return FrameType::kInter;
}

Encoder::InterPlan Encoder::build_inter_plan(const video::Frame& src,
                                             const MotionField& motion) const {
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  const std::size_t mb_count =
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows);

  DIVE_OBS_SPAN(span, obs_, "codec.inter_plan", obs::kTrackCodec);
  span.flow(frame_ctx_);

  InterPlan plan;
  plan.preds.resize(mb_count * kBlocksPerMb);
  plan.coeffs.resize(mb_count * kBlocksPerMb);
  plan.skip.assign(mb_count, 0);
  plan.eff_motion = motion;

  // SKIP decisions and predictions/residual DCTs, row-parallel. The SKIP
  // chain is serial WITHIN a row (the predicted MV is the previous
  // macroblock's coded MV, and the predictor chain resets per row —
  // mirroring bitstream emission), so rows stay independent and the
  // decisions are bit-identical for every thread count. A skipped
  // macroblock is predicted at the predicted MV and never pays the
  // residual DCT; its coefficients stay zero (value-initialized).
  const bool skip_on = config_.skip_blocks;
  const auto skip_budget =
      static_cast<std::uint32_t>(std::max(0, config_.skip_threshold));
  const Sad16Fn sad_fn = searcher_.sad_fn();
  const auto plan_row = [&](int row) {
    MotionVector pred{};  // coded-MV predictor chain, reset per row
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      MotionVector mv = motion.at(col, row);
      bool skip = false;
      if (skip_on) {
        const std::uint32_t pred_sad = sad_16x16(
            src.y, reference_.y, col * kMb, row * kMb, pred, sad_fn);
        skip = pred_sad < skip_budget;
      }
      if (skip) {
        plan.skip[mb] = 1;
        mv = pred;
      }
      plan.eff_motion.at(col, row) = mv;
      pred = mv;
      // Chroma planes are half resolution: halve the half-pel units.
      const int cdx = mv.dx / 2;
      const int cdy = mv.dy / 2;
      const auto blocks = mb_blocks(col, row);
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const auto& blk = blocks[static_cast<std::size_t>(b)];
        const video::Plane& sp =
            blk.chroma ? (b == 4 ? src.u : src.v) : src.y;
        const video::Plane& rp =
            blk.chroma ? (b == 4 ? reference_.u : reference_.v) : reference_.y;
        plan.preds[base + static_cast<std::size_t>(b)] =
            mc_predict(rp, blk.bx, blk.by, blk.chroma ? cdx : mv.dx,
                       blk.chroma ? cdy : mv.dy);
        if (!skip) {
          residual_dct(sp, blk.bx, blk.by,
                       plan.preds[base + static_cast<std::size_t>(b)],
                       plan.coeffs[base + static_cast<std::size_t>(b)]);
        }
      }
    }
  };
  if (pool_) pool_->parallel_for(0, mb_rows, plan_row);
  else for (int row = 0; row < mb_rows; ++row) plan_row(row);
  return plan;
}

Encoder::PreparedInter Encoder::prepare_inter_trial(
    const InterPlan& plan, int base_qp, const QpOffsetMap* offsets) const {
  base_qp = std::clamp(base_qp, kMinQp, kMaxQp);
  DIVE_OBS_SPAN(span, obs_, "codec.inter_trial", obs::kTrackCodec);
  span.flow(frame_ctx_);
  span.arg("qp", base_qp);
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  const std::size_t mb_count =
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows);

  PreparedInter prep;
  prep.base_qp = base_qp;
  prep.recon = video::Frame(config_.width, config_.height);

  // Parallel by row: quantize the precomputed residual coefficients at
  // this trial's QP and reconstruct. Each row writes a disjoint slice of
  // the scratch arrays and the reconstruction.
  prep.levels.resize(mb_count * kBlocksPerMb);
  prep.cbp.assign(mb_count, 0);
  prep.qps.assign(mb_count, base_qp);

  const auto quant_row = [&](int row) {
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      const int qp = mb_qp(base_qp, offsets, col, row);
      prep.qps[mb] = qp;
      const bool skip = plan.skip[mb] != 0;
      int mask = 0;
      const auto blocks = mb_blocks(col, row);
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const std::size_t i = base + static_cast<std::size_t>(b);
        if (!skip) {
          quantize(plan.coeffs[i], qp, prep.levels[i]);
          if (!all_zero(prep.levels[i])) mask |= 1 << b;
        }
        const auto& blk = blocks[static_cast<std::size_t>(b)];
        video::Plane& rp =
            blk.chroma ? (b == 4 ? prep.recon.u : prep.recon.v)
                       : prep.recon.y;
        // SKIP macroblocks reconstruct as the bare prediction — exactly
        // the reference copy the decoder performs on a skip bit.
        reconstruct_block(rp, blk.bx, blk.by, plan.preds[i],
                          (mask & (1 << b)) ? &prep.levels[i] : nullptr, qp);
      }
      prep.cbp[mb] = mask;
    }
  };
  if (pool_) pool_->parallel_for(0, mb_rows, quant_row);
  else for (int row = 0; row < mb_rows; ++row) quant_row(row);
  return prep;
}

std::vector<std::uint8_t> Encoder::emit_inter_trial(
    const PreparedInter& prep, const InterPlan& plan) const {
  // Serial raster-order bitstream emission. This is the only
  // order-dependent state (prev_qp chain, MV prediction), so running it
  // serially keeps the bytes bit-identical for every thread count. It
  // reads only prep.levels/cbp/qps and the plan's coded field — never
  // the reconstruction — which is what lets the pipelined schedule hand
  // prep.recon to reference_ (and start the next frame's motion search)
  // before emission finishes.
  //
  // SKIP bit semantics: "this macroblock's MV equals the predicted MV
  // and it carries no residual" — the decoder copies the reference at
  // the predicted MV. Threshold-forced skips satisfy the condition by
  // construction (build_inter_plan coded them at the predicted MV), so
  // forced and natural skips share one emission rule.
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  BitWriter bw;
  write_frame_header(bw, FrameType::kInter, prep.base_qp, mb_cols, mb_rows);
  int prev_qp = prep.base_qp;
  for (int row = 0; row < mb_rows; ++row) {
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      const MotionVector mv = plan.eff_motion.at(col, row);
      const MotionVector pred_mv =
          col > 0 ? plan.eff_motion.at(col - 1, row) : MotionVector{};
      const bool skip = mv == pred_mv && prep.cbp[mb] == 0;
      bw.put_bit(skip);
      if (skip) continue;
      bw.put_se(mv.dx - pred_mv.dx);
      bw.put_se(mv.dy - pred_mv.dy);
      bw.put_se(prep.qps[mb] - prev_qp);
      prev_qp = prep.qps[mb];
      bw.put_bits(static_cast<std::uint32_t>(prep.cbp[mb]), 6);
      for (int b = 0; b < kBlocksPerMb; ++b)
        if (prep.cbp[mb] & (1 << b))
          write_block(bw, prep.levels[base + static_cast<std::size_t>(b)]);
    }
  }
  return bw.finish();
}

/// Per-macroblock SKIP flags of one emitted trial, raster order: forced
/// skips plus the natural ones (coded MV equal to its predictor, zero
/// coded-block pattern — the same predicate emit_inter_trial writes a
/// skip bit for).
std::vector<std::uint8_t> Encoder::skip_map(const PreparedInter& prep,
                                            const InterPlan& plan) const {
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  std::vector<std::uint8_t> skip(
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows),
      0);
  for (int row = 0; row < mb_rows; ++row) {
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const MotionVector mv = plan.eff_motion.at(col, row);
      const MotionVector pred_mv =
          col > 0 ? plan.eff_motion.at(col - 1, row) : MotionVector{};
      if (mv == pred_mv && prep.cbp[mb] == 0) skip[mb] = 1;
    }
  }
  return skip;
}

Encoder::Trial Encoder::run_inter_trial(const InterPlan& plan, int base_qp,
                                        const QpOffsetMap* offsets) const {
  PreparedInter prep = prepare_inter_trial(plan, base_qp, offsets);
  Trial trial;
  trial.base_qp = prep.base_qp;
  trial.data = emit_inter_trial(prep, plan);
  trial.skip = skip_map(prep, plan);
  trial.skipped_mbs = static_cast<int>(
      std::count(trial.skip.begin(), trial.skip.end(), std::uint8_t{1}));
  trial.recon = std::move(prep.recon);
  return trial;
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
  write_frame_header(bw, FrameType::kIntra, base_qp, mb_cols, mb_rows);

  // Intra macroblocks DC-predict from the running reconstruction, so
  // transform/emit/reconstruct proceed strictly in raster order.
  int prev_qp = base_qp;
  for (int row = 0; row < mb_rows; ++row) {
    for (int col = 0; col < mb_cols; ++col) {
      const int qp = mb_qp(base_qp, offsets, col, row);
      bw.put_se(qp - prev_qp);
      prev_qp = qp;
      const auto blocks = mb_blocks(col, row);
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const auto& blk = blocks[static_cast<std::size_t>(b)];
        const video::Plane& sp =
            blk.chroma ? (b == 4 ? src.u : src.v) : src.y;
        video::Plane& rp =
            blk.chroma ? (b == 4 ? trial.recon.u : trial.recon.v)
                       : trial.recon.y;
        const Block8x8 pred = const_predict(dc_predict(rp, blk.bx, blk.by));
        QuantBlock levels;
        const bool coded = transform_block(sp, blk.bx, blk.by, pred, qp,
                                           levels);
        bw.put_bit(coded);
        if (coded) write_block(bw, levels);
        reconstruct_block(rp, blk.bx, blk.by, pred, coded ? &levels : nullptr,
                          qp);
      }
    }
  }

  trial.data = bw.finish();
  return trial;
}

EncodedFrame Encoder::finish_frame(std::vector<std::uint8_t> data,
                                   int base_qp, FrameType type,
                                   const MotionField* motion,
                                   const video::Frame& src,
                                   std::vector<std::uint8_t> skip) {
  EncodedFrame out;
  out.data = std::move(data);
  out.type = type;
  out.base_qp = base_qp;
  if (type == FrameType::kInter && motion != nullptr) out.motion = *motion;
  out.psnr_y = video::psnr_y(src, reference_);
  if (type == FrameType::kInter) {
    out.skip = std::move(skip);
    out.skipped_mbs = static_cast<int>(
        std::count(out.skip.begin(), out.skip.end(), std::uint8_t{1}));
  }

  force_intra_ = false;
  ++frame_index_;
  last_qp_ = out.base_qp;

  if (type == FrameType::kInter) {
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
  const FrameType type = next_frame_type(src);
  MotionField local;
  if (type == FrameType::kInter && motion == nullptr) {
    local = analyze_motion(src);
    motion = &local;
  }

  if (type == FrameType::kInter) {
    const InterPlan plan = build_inter_plan(src, *motion);
    PreparedInter prep = prepare_inter_trial(plan, base_qp, offsets);
    // The reconstruction is final once the parallel pass is done, and
    // emission never reads it, so it becomes the reference right away.
    reference_ = std::move(prep.recon);
    has_reference_ = true;
    std::vector<std::uint8_t> data = emit_inter_trial(prep, plan);
    return finish_frame(std::move(data), prep.base_qp, type,
                        &plan.eff_motion, src, skip_map(prep, plan));
  }

  Trial trial = run_intra_trial(src, base_qp, offsets);
  reference_ = std::move(trial.recon);
  has_reference_ = true;
  return finish_frame(std::move(trial.data), trial.base_qp, type, motion,
                      src);
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
  const FrameType type = next_frame_type(src);
  MotionField local;
  if (type == FrameType::kInter && motion == nullptr) {
    local = analyze_motion(src);
    motion = &local;
  }

  rc_stats_ = {};

  // QP-independent work, paid once per inter frame.
  std::optional<InterPlan> plan;
  if (type == FrameType::kInter) {
    plan = build_inter_plan(src, *motion);
    rc_stats_.full_transform_passes = 1;
  }

  // Encode one QP trial, memoized by QP: a revisited QP is served from
  // the memo, and the final pick is always a move, never a re-encode.
  std::map<int, Trial> memo;
  const auto eval = [&](int qp) -> Trial& {
    ++rc_stats_.trials_attempted;
    if (auto it = memo.find(qp); it != memo.end()) {
      ++rc_stats_.trials_reused;
      return it->second;
    }
    ++rc_stats_.trials_encoded;
    Trial t;
    if (plan) {
      t = run_inter_trial(*plan, qp, offsets);
    } else {
      // Intra prediction depends on the QP-dependent reconstruction, so
      // an intra trial is always a full pass.
      ++rc_stats_.full_transform_passes;
      t = run_intra_trial(src, qp, offsets);
    }
    return memo.emplace(qp, std::move(t)).first->second;
  };

  // Binary search over base QP for the best quality that fits the budget.
  int lo = kMinQp;
  int hi = kMaxQp;
  int qp = std::clamp(last_qp_, kMinQp, kMaxQp);
  int best_qp = -1;  // smallest fitting QP seen so far
  int over_qp = -1;  // most recent non-fitting QP

  for (int iter = 0; iter < std::max(1, config_.rate_iterations); ++iter) {
    const Trial& trial = eval(qp);
    if (trial.data.size() <= target_bytes) {
      hi = trial.base_qp - 1;
      if (best_qp < 0 || trial.base_qp < best_qp) best_qp = trial.base_qp;
    } else {
      lo = trial.base_qp + 1;
      over_qp = trial.base_qp;
    }
    if (lo > hi) break;
    qp = (lo + hi) / 2;
  }

  // The memo guarantees materializing the winner never re-encodes it.
  const int chosen_qp = best_qp >= 0 ? best_qp : over_qp;
  span.arg("chosen_qp", chosen_qp);
  if (obs_handles_.trials_attempted != nullptr) {
    obs_handles_.trials_attempted->add(rc_stats_.trials_attempted);
    obs_handles_.trials_encoded->add(rc_stats_.trials_encoded);
    obs_handles_.trials_reused->add(rc_stats_.trials_reused);
    obs_handles_.full_passes->add(rc_stats_.full_transform_passes);
  }
  Trial chosen = std::move(memo.at(chosen_qp));
  reference_ = std::move(chosen.recon);
  has_reference_ = true;
  return finish_frame(std::move(chosen.data), chosen.base_qp, type,
                      plan ? &plan->eff_motion : nullptr, src,
                      std::move(chosen.skip));
}

}  // namespace dive::codec
