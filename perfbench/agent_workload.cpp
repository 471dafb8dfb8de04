// Agent workloads: one DiVE agent (core::DiveAgent) fed frame by frame in
// a closed loop — the next frame goes in when process_frame returns —
// with capture times from the clip's frame schedule, ground-truth
// detection and AP scoring per frame, exactly as harness::run_experiment
// drives it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dive;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinSweeps = 3;  ///< untraced visits per clip, for BestOf
constexpr double kOnTimeMs = 400.0;  ///< edge result within 400 ms

/// Ego trajectory kind of one clip.
enum class Drive { kStraight, kStopAndGo, kTurning };

struct AgentWorkload {
  data::DatasetSpec spec;
  /// One per clip. DatasetSpec draws each clip's kind from the seed; with
  /// 3-4 clips that one draw moved host time per frame by up to 20%
  /// between seeds. The benchmark fixes the mix and leaves speed, turn,
  /// timing, scene and noise to the seed.
  std::vector<Drive> drives;
  harness::NetworkScenario network;
  harness::SchemeOptions options;
  int threads = 1;
};

std::optional<AgentWorkload> find_workload(const RunArgs& args) {
  AgentWorkload w;
  w.options.seed = args.seed;
  if (args.workload == "robotcar_t1") {
    // Constant 2 Mbps, no RoI lane: the codec dominates host time.
    w.spec = data::robotcar_like(4, 32, args.seed);
    w.drives = {Drive::kStraight, Drive::kStopAndGo, Drive::kTurning,
                Drive::kStraight};
    w.network.mbps = 2.0;
    w.options.roi_metadata = false;
    w.threads = 1;
    return w;
  }
  if (args.workload == "nuscenes_outage_t2") {
    // 2 Mbps with a 1 s outage every 6 s, RoI lane on: intra resyncs, MOT
    // fallback, sidecars and gated edge inference. The outage starts 4 s
    // into each 6 s clip, so the response p50 measures the steady state
    // and the p95 the backlog the outage leaves behind (README.md).
    w.spec = data::nuscenes_like(3, 72, args.seed);
    w.drives = {Drive::kStraight, Drive::kStopAndGo, Drive::kTurning};
    w.network.mbps = 2.0;
    w.network.outage_interval_s = 6.0;
    w.network.outage_duration_s = 1.0;
    w.network.first_outage_s = 4.0;
    w.options.roi_metadata = true;
    w.threads = 2;
    return w;
  }
  return std::nullopt;
}

/// Clip `c` of the workload, of kind drives[c]. The draw that picks the
/// kind still happens, so the rest of the clip's random stream is the one
/// DatasetSpec alone would give.
data::Clip render_clip(const AgentWorkload& w, int c) {
  data::DatasetSpec spec = w.spec;
  const Drive drive = w.drives[static_cast<std::size_t>(c)];
  spec.stop_and_go_fraction = drive == Drive::kStopAndGo ? 1.0 : 0.0;
  spec.turning_fraction = drive == Drive::kTurning ? 1.0 : 0.0;
  return data::generate_clip(spec, c);
}

/// The DiVE scheme harness::make_scheme builds, with the encoder thread
/// count pinned instead of read from DIVE_THREADS. The output check
/// against run_experiment catches any drift between the two.
std::unique_ptr<core::DiveAgent> make_agent(const AgentWorkload& w,
                                            const data::Clip& clip,
                                            obs::ObsContext* obs) {
  net::UplinkConfig uplink_cfg;
  uplink_cfg.propagation_delay = w.network.propagation_delay;
  uplink_cfg.head_timeout = w.network.head_timeout;
  const double duration_s = clip.frame_count() / clip.fps;
  auto uplink = std::make_shared<net::Uplink>(
      w.network.make_trace(duration_s, w.options.seed), uplink_cfg);
  auto server =
      std::make_shared<edge::EdgeServer>(edge::ServerConfig{}, w.options.seed);

  codec::EncoderConfig enc;
  enc.width = clip.camera.width();
  enc.height = clip.camera.height();
  enc.search.method = w.options.search;
  enc.gop_length = w.options.gop_length;
  enc.skip_blocks = w.options.skip_blocks;
  enc.threads = w.threads;

  core::DiveConfig cfg;
  cfg.fps = clip.fps;
  cfg.qp.fixed_delta = w.options.fixed_delta;
  cfg.enable_offline_tracking = w.options.enable_offline_tracking;
  cfg.roi_metadata = w.options.roi_metadata;
  cfg.seed = w.options.seed;
  cfg.encode_threads = w.threads;
  cfg.obs = obs;
  return std::make_unique<core::DiveAgent>(cfg, enc, clip.camera, uplink,
                                           server);
}

/// Adds one frame's deterministic outputs to a digest.
void add_outcome(Fnv1a& digest, const core::FrameOutcome& o) {
  digest.add(o.response_time);
  digest.add(o.offloaded);
  digest.add(o.bytes_sent);
  digest.add(o.base_qp);
  digest.add(o.detections.size());
  for (const auto& d : o.detections) {
    digest.add(d.cls);
    digest.add(d.box.x0);
    digest.add(d.box.y0);
    digest.add(d.box.x1);
    digest.add(d.box.y1);
    digest.add(d.confidence);
  }
}

/// One closed-loop run of the agent over one clip.
struct Visit {
  std::vector<core::FrameOutcome> outcomes;
  std::vector<edge::DetectionList> truths;
  std::vector<double> frame_ms;  ///< host time of each process_frame
  std::uint64_t digest = 0;
  double wall_s = 0.0;  ///< construction + frames + scoring
};

Visit run_visit(const AgentWorkload& w, const data::Clip& clip,
                const edge::ChromaDetector& gt_detector,
                obs::ObsContext* obs) {
  obs::Tracer* tracer = obs != nullptr ? &obs->tracer : nullptr;
  Visit v;
  Fnv1a digest;
  const double t0 = now_s();
  auto agent = make_agent(w, clip, obs);
  edge::ApEvaluator evaluator;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const auto& rec = clip.frames[i];
    if (i + 1 < clip.frames.size())
      agent->hint_next_frame(clip.frames[i + 1].image);
    const double f0 = now_s();
    core::FrameOutcome outcome;
    {
      obs::ScopedSpan span(tracer, "bench.frame");
      outcome = agent->process_frame(rec.image,
                                     util::from_seconds(rec.timestamp));
    }
    v.frame_ms.push_back((now_s() - f0) * 1e3);
    edge::DetectionList truths;
    {
      obs::ScopedSpan span(tracer, "bench.gt_detect");
      truths = gt_detector.detect(rec.image);
    }
    {
      obs::ScopedSpan span(tracer, "bench.score");
      evaluator.add_frame(outcome.detections, truths);
    }
    add_outcome(digest, outcome);
    v.outcomes.push_back(std::move(outcome));
    v.truths.push_back(std::move(truths));
  }
  {
    obs::ScopedSpan span(tracer, "bench.score");
    digest.add(evaluator.map());
  }
  agent.reset();
  v.wall_s = now_s() - t0;
  v.digest = digest.value();
  return v;
}

/// Deterministic per-layer values read from one traced visit's context.
struct LayerCounts {
  long frames = 0;
  long mot_frames = 0;
  long trials_attempted = 0;
  long trials_reused = 0;
  long prefetch_launched = 0;
  long prefetch_hits = 0;
  long skipped_mbs = 0;
  long inter_mbs = 0;
  long sidecar_bytes = 0;
  long gated_frames = 0;
  long full_frames = 0;
  double fg_area_sum = 0.0;  ///< sum of per-frame FG area fractions
  double pixel_fraction_sum = 0.0;
  long pixel_fraction_n = 0;
  util::SampleSet uplink_wait_ms;
  util::SampleSet inference_ms;
  double attributed_ms = 0.0;
  double e2e_ms = 0.0;

  void add_registry(obs::MetricsRegistry& m) {
    const auto c = [&m](const char* name) {
      return static_cast<long>(m.counter(name).value());
    };
    trials_attempted += c("codec.rc.trials_attempted");
    trials_reused += c("codec.rc.trials_reused");
    prefetch_launched += c("codec.prefetch.launched");
    prefetch_hits += c("codec.prefetch.hits");
    skipped_mbs += c("codec.skip.skipped_mbs");
    inter_mbs += c("codec.skip.inter_mbs");
    sidecar_bytes += c("roi.sidecar_bytes");
    gated_frames += c("roi.gated_frames");
    full_frames += c("roi.full_frames");
    mot_frames += c("agent.fallbacks");
    const util::SampleSet fg = m.distribution("agent.fg_area_pct", "%").snapshot();
    fg_area_sum += fg.mean() * static_cast<double>(fg.count()) / 100.0;
    const util::SampleSet px =
        m.distribution("roi.pixel_fraction", "ratio").snapshot();
    pixel_fraction_sum += px.mean() * static_cast<double>(px.count());
    pixel_fraction_n += static_cast<long>(px.count());
  }

  void add_ledger(const obs::FrameLedger& ledger) {
    for (const auto& r : ledger.records()) {
      if (r.stage(obs::FrameStage::kUplinkQueue).set)
        uplink_wait_ms.add(r.stage_ms(obs::FrameStage::kUplinkQueue));
      if (r.stage(obs::FrameStage::kInference).set)
        inference_ms.add(r.stage_ms(obs::FrameStage::kInference));
      if (r.outcome == obs::FrameOutcome::kCompleted ||
          r.outcome == obs::FrameOutcome::kCompletedLate) {
        attributed_ms += r.attributed_ms();
        e2e_ms += r.e2e_ms();
      }
    }
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

bool run_agent_workload(const RunArgs& args, Report& report) {
  const std::optional<AgentWorkload> found = find_workload(args);
  if (!found) return false;
  const AgentWorkload& w = *found;
  const edge::ChromaDetector gt_detector{edge::ServerConfig{}.detector};

  // Set-up: render the clips and construct one agent per clip, several
  // times; the median is setup_s.
  obs::ObsContext setup_obs;
  setup_obs.tracer.set_enabled(args.trace);
  util::SampleSet setup_s;
  std::vector<data::Clip> clips;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    std::vector<data::Clip> rendered;
    for (int c = 0; c < w.spec.clip_count; ++c) {
      obs::ScopedSpan span(&setup_obs.tracer, "bench.render");
      rendered.push_back(render_clip(w, c));
    }
    for (const auto& clip : rendered) make_agent(w, clip, nullptr);
    setup_s.add(now_s() - t0);
    clips = std::move(rendered);
  }
  long clip_frames = 0;
  for (const auto& clip : clips) clip_frames += clip.frame_count();

  // Reference: the harness's own run over the same clips.
  const harness::RunResult ref =
      harness::run_experiment(harness::SchemeKind::kDive, clips, w.network,
                              w.options);

  // Timed phase: visit the clips round-robin until every clip has run (an
  // untraced run: kMinSweeps times) and the time is up. A traced run
  // alternates an untraced and a traced visit of each clip.
  const std::size_t n_clips = clips.size();
  const std::size_t per_clip = args.trace ? 2 : 1;
  const std::size_t min_sweeps = args.trace ? 1 : kMinSweeps;
  std::vector<std::optional<Visit>> first(n_clips);
  std::vector<bool> traced_seen(n_clips, false);
  std::vector<BestOf> clip_frame_ms(n_clips);
  std::vector<BestOf> clip_visit_s(n_clips);
  std::vector<double> visit_s;
  SpanRollup rollup;
  rollup.add(setup_obs.tracer.snapshot());
  LayerCounts layers;
  long attempted = 0;
  long failed = 0;
  long traced_frames = 0;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  const double t_start = now_s();
  std::size_t k = 0;
  for (;; ++k) {
    if (k >= min_sweeps * n_clips * per_clip &&
        now_s() - t_start >= args.seconds && k % (n_clips * per_clip) == 0)
      break;
    const std::size_t c = (k / per_clip) % n_clips;
    const bool traced = args.trace && k % 2 == 1;
    std::optional<obs::ObsContext> obs;
    if (traced) {
      obs.emplace();
      obs->tracer.set_enabled(true);
    }
    Visit v = run_visit(w, clips[c], gt_detector, obs ? &*obs : nullptr);
    attempted += clips[c].frame_count();
    visit_s.push_back(v.wall_s);
    if (traced) {
      rollup.add(obs->tracer.snapshot());
      traced_frames += clips[c].frame_count();
      traced_wall += v.wall_s;
      if (!traced_seen[c]) {
        traced_seen[c] = true;
        layers.frames += clips[c].frame_count();
        layers.add_registry(obs->metrics);
        layers.add_ledger(obs->ledger);
      }
    } else {
      untraced_wall += v.wall_s;
      clip_frame_ms[c].add(v.frame_ms);
      clip_visit_s[c].add({v.wall_s});
    }
    if (!first[c]) {
      first[c] = std::move(v);
    } else if (v.digest != first[c]->digest) {
      failed += clips[c].frame_count();
      report.check(false, "clip " + std::to_string(c) + " visit " +
                              std::to_string(k) + (traced ? " (traced)" : "") +
                              " differs from its first visit");
    }
  }
  note_blocks(report, "visit", visit_s);

  // Deterministic outputs over one visit of every clip, in clip order —
  // the same aggregation run_experiment performs.
  edge::ApEvaluator evaluator;
  util::SampleSet responses;
  util::RunningStats kib;
  util::SampleSet edge_responses;
  long offloaded = 0;
  long on_time = 0;
  long frames = 0;
  for (const auto& v : first) {
    for (std::size_t i = 0; i < v->outcomes.size(); ++i) {
      const core::FrameOutcome& o = v->outcomes[i];
      evaluator.add_frame(o.detections, v->truths[i]);
      const double ms = util::to_millis(o.response_time);
      responses.add(ms);
      kib.add(static_cast<double>(o.bytes_sent) / 1024.0);
      if (o.offloaded) {
        ++offloaded;
        edge_responses.add(ms);
        if (ms <= kOnTimeMs) ++on_time;
      }
      ++frames;
    }
  }
  const double n_frames = static_cast<double>(frames);
  const double map = evaluator.map();
  const bool matches_harness =
      map == ref.map && responses.mean() == ref.mean_response_ms &&
      responses.quantile(0.95) == ref.p95_response_ms &&
      kib.mean() == ref.mean_kbytes_per_frame &&
      offloaded / n_frames == ref.offload_fraction && frames == ref.frames;
  report.check(matches_harness,
               "mAP, mean and p95 response, KiB per frame, offload fraction "
               "and frame count equal run_experiment's");
  report.count(attempted, matches_harness ? failed : attempted);

  const double resp_p50 = quantile(edge_responses, 0.5);
  const double resp_p95 = quantile(edge_responses, 0.95);
  report.deterministic("map", map);
  report.deterministic("response_ms.p50", resp_p50);
  report.deterministic("response_ms.p95", resp_p95);
  report.deterministic("offload_fraction", offloaded / n_frames);
  report.deterministic("on_time_fraction", on_time / n_frames);
  report.deterministic("uplink_kbytes_per_frame", kib.mean());
  report.deterministic("frames", n_frames);
  Fnv1a all;
  for (const auto& v : first) all.add(v->digest);
  report.deterministic("outcome_digest32", all.value32());

  if (!args.trace) {
    // Host figures: each frame's fastest untraced visit, and the sum of
    // each clip's fastest visit for one sweep.
    util::SampleSet frame_ms;
    double sweep_s = 0.0;
    for (std::size_t c = 0; c < n_clips; ++c) {
      for (const double ms : clip_frame_ms[c].best()) frame_ms.add(ms);
      sweep_s += clip_visit_s[c].best()[0];
    }
    const auto n_timed = static_cast<long>(frame_ms.count());
    report.note("untraced visits per clip: " +
                std::to_string(clip_frame_ms[0].repeats()));
    report.metric("setup_s", quantile(setup_s, 0.5), "s", kSetupRepeats);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("frames_per_s", static_cast<double>(clip_frames) / sweep_s,
                  "1/s", attempted);
    report.metric("frame_ms.p50", quantile(frame_ms, 0.5), "ms", n_timed);
    report.metric("frame_ms.p95", quantile(frame_ms, 0.95), "ms", n_timed);
    report.metric("map", map, "ratio", frames);
    report.metric("response_ms.p50", resp_p50, "ms",
                  static_cast<long>(edge_responses.count()));
    report.metric("response_ms.p95", resp_p95, "ms",
                  static_cast<long>(edge_responses.count()));
    report.metric("offload_fraction", offloaded / n_frames, "ratio", frames);
    report.metric("on_time_fraction", on_time / n_frames, "ratio", frames);
    report.metric("uplink_kbytes_per_frame", kib.mean(), "KiB", frames);
    return true;
  }

  // Traced run: per-layer host time from span self times, deterministic
  // per-layer counts from the first traced visit of every clip.
  const double tf = static_cast<double>(std::max(1L, traced_frames));
  const auto self = [&](const char* name) { return rollup.get(name).self_ms / tf; };
  const auto incl = [&](const char* name) { return rollup.get(name).incl_ms / tf; };
  const long lf = std::max(1L, layers.frames);
  const SpanTotals frame_span = rollup.get("bench.frame");
  const double traced_frame_ms = frame_span.incl_ms / tf;
  const SpanTotals render = rollup.get("bench.render");
  const SpanTotals infer = rollup.get("agent.edge_infer");
  const long trials = rollup.get("codec.inter_trial").count +
                      rollup.get("codec.intra_trial").count;
  const long encodes = rollup.get("codec.encode_to_target").count +
                       rollup.get("codec.encode").count;
  // Traced visits cover whole passes over the clips.
  const double traced_passes =
      static_cast<double>(traced_frames) / static_cast<double>(clip_frames);

  report.metric("video.render_ms_per_frame",
                ratio(render.incl_ms,
                      static_cast<double>(clip_frames * kSetupRepeats)),
                "ms", clip_frames * kSetupRepeats);
  report.metric("codec.motion_search_ms", self("codec.motion_search"), "ms", traced_frames);
  report.metric("codec.inter_plan_ms", self("codec.inter_plan"), "ms", traced_frames);
  report.metric("codec.inter_trial_ms", self("codec.inter_trial"), "ms", traced_frames);
  report.metric("codec.trials_per_frame",
                ratio(static_cast<double>(trials), static_cast<double>(encodes)),
                "count", encodes);
  report.metric("codec.trial_reuse_ratio",
                ratio(static_cast<double>(layers.trials_reused),
                      static_cast<double>(layers.trials_attempted)),
                "ratio", layers.trials_attempted);
  report.metric("codec.encode_self_ms",
                self("codec.encode_to_target") + self("codec.encode"), "ms",
                traced_frames);
  report.metric("codec.intra_trial_ms", self("codec.intra_trial"), "ms", traced_frames);
  report.metric("codec.intra_frames",
                ratio(static_cast<double>(rollup.parents_of("codec.intra_trial")),
                      traced_passes),
                "count", clip_frames);
  report.metric("codec.mv_harvest_ms", incl("agent.mv_harvest"), "ms", traced_frames);
  report.metric("codec.prefetch_hit_ratio",
                ratio(static_cast<double>(layers.prefetch_hits),
                      static_cast<double>(layers.prefetch_launched)),
                "ratio", layers.prefetch_launched);
  report.metric("codec.skip_mb_ratio",
                ratio(static_cast<double>(layers.skipped_mbs),
                      static_cast<double>(layers.inter_mbs)),
                "ratio", layers.inter_mbs);
  report.metric("core.preprocess_ms", self("agent.preprocess"), "ms", traced_frames);
  report.metric("core.foreground_ms", self("agent.foreground"), "ms", traced_frames);
  report.metric("core.qp_assign_ms", self("agent.qp_assign"), "ms", traced_frames);
  report.metric("core.fg_area_fraction", layers.fg_area_sum / static_cast<double>(lf),
                "ratio", lf);
  report.metric("core.mot_frames", static_cast<double>(layers.mot_frames), "count", lf);
  report.metric("roi.sidecar_ms", self("agent.roi_metadata"), "ms", traced_frames);
  report.metric("roi.sidecar_bytes_per_frame",
                static_cast<double>(layers.sidecar_bytes) / static_cast<double>(lf),
                "bytes", lf);
  report.metric("roi.gated_frame_share",
                ratio(static_cast<double>(layers.gated_frames),
                      static_cast<double>(layers.gated_frames + layers.full_frames)),
                "ratio", layers.gated_frames + layers.full_frames);
  report.metric("roi.lit_pixel_fraction",
                ratio(layers.pixel_fraction_sum,
                      static_cast<double>(layers.pixel_fraction_n)),
                "ratio", layers.pixel_fraction_n);
  report.metric("net.transmit_ms", self("agent.transmit"), "ms", traced_frames);
  report.metric("net.uplink_wait_ms.p50", quantile(layers.uplink_wait_ms, 0.5),
                "ms", static_cast<long>(layers.uplink_wait_ms.count()));
  report.metric("edge.infer_ms", ratio(infer.incl_ms, static_cast<double>(infer.count)),
                "ms", infer.count);
  report.metric("edge.gt_detect_ms", incl("bench.gt_detect"), "ms", traced_frames);
  report.metric("edge.score_ms", incl("bench.score"), "ms", traced_frames);
  // No serving node on an agent workload: its time and counts are zero;
  // the agent's ledger still records the inference stage.
  report.metric("serve.node_ms_per_frame", 0.0, "ms", 0);
  report.metric("serve.admission_wait_ms.p50", 0.0, "ms", 0);
  report.metric("serve.batch_wait_ms.p50", 0.0, "ms", 0);
  report.metric("serve.inference_ms.p50", quantile(layers.inference_ms, 0.5),
                "ms", static_cast<long>(layers.inference_ms.count()));
  report.metric("serve.batch_size_mean", 0.0, "count", 0);
  report.metric("serve.queue_depth_mean", 0.0, "count", 0);
  report.metric("serve.dropped_deadline", 0.0, "count", 0);
  report.metric("serve.dropped_queue", 0.0, "count", 0);
  const double attribution = ratio(layers.attributed_ms, layers.e2e_ms);
  report.check(std::abs(attribution - 1.0) < 1e-9,
               "ledger attributes every completed frame's latency");
  report.metric("obs.ledger_attribution", attribution, "ratio", lf);
  report.metric("obs.trace_overhead", ratio(traced_wall, untraced_wall), "ratio",
                static_cast<long>(k));
  report.metric("obs.traced_frame_ms", traced_frame_ms, "ms", traced_frames);
  report.metric("obs.uninstrumented_ms", self("bench.frame") + self("agent.frame"),
                "ms", traced_frames);

  note_self_times(report, rollup, traced_frames, traced_frame_ms);
  const core::AgentLatencies model;
  const edge::ServerConfig server;
  report.note("modeled (sim clock) vs measured (host) cost per agent stage:");
  note_model_row(report, "analysis (MV+pre+FE+QP)",
                 util::to_millis(model.analysis),
                 incl("agent.mv_harvest") + incl("agent.preprocess") +
                     incl("agent.foreground") + incl("agent.qp_assign"));
  note_model_row(report, "encode (+sidecar)", util::to_millis(model.encode),
                 incl("agent.encode") + incl("agent.roi_metadata"));
  note_model_row(report, "edge decode+inference",
                 util::to_millis(server.decode_latency + server.inference_latency),
                 ratio(infer.incl_ms, static_cast<double>(infer.count)));
  return true;
}

}  // namespace perfbench
