#include "codec/encoder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/bitstream.h"
#include "codec/block_io.h"
#include "codec/block_pixels.h"
#include "codec/dct.h"
#include "codec/quant.h"
#include "codec/reconstruct.h"
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
  return search_motion(src);
}

MotionField Encoder::search_motion(const video::Frame& src) const {
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

  MotionField searched;
  if (motion == nullptr) {
    searched = search_motion(src);
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
  // Blocks are predicted on demand from reference_ (DESIGN §11); the
  // SKIP check's luma prediction is reused as the luma MC of a macroblock
  // coded at the predicted MV, skipped or not.
  const bool skip_on = config_.skip_blocks;
  const Sad16Fn sad_fn = searcher_.sad_fn();
  const auto plan_row = [&](int row) {
    MbLuma at_pred;
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      const MotionVector pred = predicted_mv(plan.eff_motion, col, row);
      MotionVector mv = motion->at(col, row);
      bool skip = false;
      if (skip_on) {
        predict_mb_luma(reference_.y, col, row, pred, at_pred);
        const std::size_t at =
            static_cast<std::size_t>(row) * kMb * src.y.width + col * kMb;
        skip = sad_fn(&src.y.data[at], src.y.width, at_pred.data(), kMb) <
               kSkipThreshold;
      }
      if (skip) {
        plan.skip[mb] = 1;
        mv = pred;
      }
      plan.eff_motion.at(col, row) = mv;
      predict_inter_mb(reference_, col, row, mv, &plan.preds[base],
                       skip_on && mv == pred ? &at_pred : nullptr);
      if (skip) continue;
      const auto blocks = mb_blocks(col, row);
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
        const std::size_t i = base + static_cast<std::size_t>(b);
        Block8x8 coeffs;
        residual_dct(plane_of(src, blk.plane), blk.bx, blk.by, plan.preds[i],
                     coeffs);
        to_scan_order(coeffs, plan.coeffs[i]);
        plan.max_abs[i] = max_abs(coeffs);
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
  PreparedTrial& prep = trial.prep;
  prep.base_qp = base_qp;

  // Parallel by row: quantize the precomputed residual coefficients at
  // this trial's QP, size the coded blocks, and decide each macroblock's
  // SKIP bit. Each row writes a disjoint slice of the arrays, and every
  // per-mb entry, so a previous trial's storage is reused as is. Levels
  // and scan masks are written only for coded blocks and read only where
  // the cbp bit is set, so they are not zero-filled; a block whose
  // largest |coeff| is at or below the QP's zero bound quantizes to all
  // zeros, so it is never visited. Nothing is reconstructed here: only
  // the committed trial is, by reconstruct_inter.
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
        const double zero_bound = quant_step(qp).zero_bound;
        for (int b = 0; b < kBlocksPerMb; ++b) {
          const std::size_t i = base + static_cast<std::size_t>(b);
          if (plan.max_abs[i] <= zero_bound) continue;
          const int coded_bits = quantize_scan_bits(
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
                                        const PreparedTrial& prep) const {
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  video::Frame recon(config_.width, config_.height);
  // Parallel by row, disjoint writes. SKIP macroblocks (cbp 0)
  // reconstruct as the bare prediction — exactly the reference copy the
  // decoder performs. Coded blocks' scan-order levels go back to raster
  // order first, as the decoder's read_block leaves them.
  const auto recon_row = [&](int row) {
    std::array<QuantBlock, kBlocksPerMb> raster;
    for (int col = 0; col < mb_cols; ++col) {
      const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
      const std::size_t base = mb * kBlocksPerMb;
      for (int b = 0; b < kBlocksPerMb; ++b) {
        const std::size_t i = base + static_cast<std::size_t>(b);
        if (prep.cbp[mb] & (1 << b))
          scan_levels_to_raster(prep.levels[i], prep.scans[i],
                                raster[static_cast<std::size_t>(b)]);
      }
      reconstruct_inter_mb(recon, col, row, &plan.preds[base], raster.data(),
                           prep.cbp[mb], prep.qps[mb]);
    }
  };
  if (pool_) pool_->parallel_for(0, mb_rows, recon_row);
  else for (int row = 0; row < mb_rows; ++row) recon_row(row);
  return recon;
}

template <class Sink>
void Encoder::code_inter_trial(Sink& sink, const PreparedTrial& prep,
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

template <class Sink>
void Encoder::code_intra_trial(Sink& sink, const PreparedTrial& prep) const {
  // The same serial raster-order pass for an intra trial: the dQP chain
  // and, per block, its coded flag and (when coded) its levels. A
  // BitCounter adds the block sizes counted while quantizing.
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  write_frame_header(sink,
                     {FrameType::kIntra, prep.base_qp, mb_cols, mb_rows});
  int prev_qp = prep.base_qp;
  const std::size_t mb_count =
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows);
  for (std::size_t mb = 0; mb < mb_count; ++mb) {
    sink.put_se(prep.qps[mb] - prev_qp);
    prev_qp = prep.qps[mb];
    const std::size_t base = mb * kBlocksPerMb;
    for (int b = 0; b < kBlocksPerMb; ++b) {
      const bool coded = (prep.cbp[mb] & (1 << b)) != 0;
      sink.put_bit(coded);
      if constexpr (!std::is_same_v<Sink, BitCounter>) {
        if (coded)
          write_block(sink, prep.levels[base + static_cast<std::size_t>(b)],
                      prep.scans[base + static_cast<std::size_t>(b)]);
      }
    }
    if constexpr (std::is_same_v<Sink, BitCounter>)
      sink.add_bits(static_cast<std::size_t>(prep.block_bits[mb]));
  }
}

std::size_t Encoder::size_trial(const PreparedTrial& prep,
                                const InterPlan* plan) const {
  BitCounter counter;
  if (plan != nullptr) code_inter_trial(counter, prep, *plan);
  else code_intra_trial(counter, prep);
  return counter.byte_count();
}

std::vector<std::uint8_t> Encoder::emit_trial(const PreparedTrial& prep,
                                              const InterPlan* plan) const {
  BitWriter bw;
  if (plan != nullptr) code_inter_trial(bw, prep, *plan);
  else code_intra_trial(bw, prep);
  return bw.finish();
}

void Encoder::run_intra_trial(const video::Frame& src, int base_qp,
                              const QpOffsetMap* offsets,
                              Trial& trial) const {
  base_qp = std::clamp(base_qp, kMinQp, kMaxQp);
  DIVE_OBS_SPAN(span, obs_, "codec.intra_trial", obs::kTrackCodec);
  span.flow(frame_ctx_);
  span.arg("qp", base_qp);
  const int mb_cols = config_.width / kMb;
  const int mb_rows = config_.height / kMb;
  const std::size_t mb_count =
      static_cast<std::size_t>(mb_cols) * static_cast<std::size_t>(mb_rows);

  trial.base_qp = base_qp;
  PreparedTrial& prep = trial.prep;
  prep.base_qp = base_qp;
  prep.levels.resize(mb_count * kBlocksPerMb);
  prep.scans.resize(mb_count * kBlocksPerMb);
  prep.cbp.resize(mb_count);
  prep.block_bits.resize(mb_count);
  prep.qps.resize(mb_count);
  // Every sample is reconstructed before it is read, so a previous
  // trial's reconstruction is reused as is.
  if (trial.recon.width() != config_.width ||
      trial.recon.height() != config_.height)
    trial.recon = video::Frame(config_.width, config_.height);

  // Intra macroblocks DC-predict from the reconstruction of their left
  // and upper neighbours, never the upper-right one, so rows run as a
  // wavefront: row r codes macroblock c once row r - 1 has published
  // done[r - 1] > c (release after the macroblock is reconstructed,
  // acquire before it is read). parallel_for claims rows in increasing
  // order, so the row waited on is always claimed and running; a row
  // that throws publishes the whole row before rethrowing, so no lane
  // waits on it forever. Each macroblock writes only its own samples and
  // per-mb entries, so the trial is the serial raster loop's, bit for
  // bit, at every thread count.
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(mb_rows));
  const auto code_row = [&](int row) {
    std::atomic<int>& published = done[static_cast<std::size_t>(row)];
    try {
      for (int col = 0; col < mb_cols; ++col) {
        if (row > 0)
          while (done[static_cast<std::size_t>(row - 1)].load(
                     std::memory_order_acquire) <= col)
            std::this_thread::yield();
        const std::size_t mb = static_cast<std::size_t>(row) * mb_cols + col;
        const int qp = mb_qp(base_qp, offsets, col, row);
        int cbp = 0;
        int bits = 0;
        const auto blocks = mb_blocks(col, row);
        for (int b = 0; b < kBlocksPerMb; ++b) {
          const MbBlock& blk = blocks[static_cast<std::size_t>(b)];
          const std::size_t i = mb * kBlocksPerMb + static_cast<std::size_t>(b);
          video::Plane& rp = plane_of(trial.recon, blk.plane);
          const Block8x8 pred = dc_predict(rp, blk.bx, blk.by);
          Block8x8 coeffs;
          residual_dct(plane_of(src, blk.plane), blk.bx, blk.by, pred, coeffs);
          Block8x8 scan_coeffs;
          to_scan_order(coeffs, scan_coeffs);
          const int coded_bits = quantize_scan_bits(
              scan_coeffs, qp, prep.levels[i], prep.scans[i]);
          QuantBlock raster;
          if (coded_bits != 0) {
            cbp |= 1 << b;
            bits += coded_bits;
            scan_levels_to_raster(prep.levels[i], prep.scans[i], raster);
          }
          reconstruct_block(rp, blk.bx, blk.by, pred,
                            coded_bits != 0 ? &raster : nullptr, qp);
        }
        prep.qps[mb] = qp;
        prep.cbp[mb] = cbp;
        prep.block_bits[mb] = bits;
        published.store(col + 1, std::memory_order_release);
      }
    } catch (...) {
      published.store(mb_cols, std::memory_order_release);
      throw;
    }
  };
  if (pool_) pool_->parallel_for(0, mb_rows, code_row);
  else for (int row = 0; row < mb_rows; ++row) code_row(row);
}

EncodedFrame Encoder::commit(Trial trial, const InterPlan* plan,
                             const video::Frame& src) {
  reference_ = plan != nullptr ? reconstruct_inter(*plan, trial.prep)
                               : std::move(trial.recon);
  has_reference_ = true;
  reference_mean_luma_ = mean_luma(reference_.y);

  EncodedFrame out;
  out.data = emit_trial(trial.prep, plan);
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
    run_intra_trial(src, base_qp, offsets, trial);
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
  // an overshooting one does until something fits. Trials are sized by
  // counting bits; only the committed one is emitted. A trial that is not
  // kept lends its storage to the next.
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
        fits = size_trial(trial.prep, &*plan) <= target_bytes;
      } else {
        ++rc_stats_.trials_cut;
      }
    } else {
      run_intra_trial(src, qp, offsets, trial);
      fits = size_trial(trial.prep, nullptr) <= target_bytes;
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
