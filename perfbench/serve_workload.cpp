// Serving workload: 24 agents on one serve::ServeNode. harness::
// run_serve_scenario renders its clips and hides its loop, so this file
// drives the same loop through the public calls (encoder, uplink, node,
// tracker, detector, evaluator) with the clips rendered in set-up, and
// checks that every pass reproduces run_serve_scenario's outputs and
// frame ledger exactly.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/encoder.h"
#include "core/foreground_extractor.h"
#include "core/offline_tracker.h"
#include "core/preprocess.h"
#include "data/dataset.h"
#include "edge/detector.h"
#include "edge/evaluator.h"
#include "harness/serve_scenario.h"
#include "net/bandwidth.h"
#include "obs/obs.h"
#include "roi/metadata.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dive;

constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 3;  ///< untraced passes, for BestOf
constexpr double kOnTimeMs = 400.0;  ///< edge result within 400 ms

harness::ServeScenarioOptions serve24_options(std::uint64_t seed) {
  harness::ServeScenarioOptions opt = harness::default_serve_options();
  opt.sessions = 24;
  opt.frames_per_session = 48;
  opt.clip_pool = 24;
  opt.encoder_threads = 1;
  // default_serve_options() reads DIVE_ROI_METADATA; pin the lane on.
  opt.roi_metadata = true;
  opt.seed = seed;
  return opt;
}

/// The clip pool run_serve_scenario renders for `options`.
std::vector<data::Clip> render_pool(const harness::ServeScenarioOptions& o,
                                    obs::Tracer* tracer) {
  data::DatasetSpec spec;
  spec.width = o.width;
  spec.height = o.height;
  spec.focal_px = 403.0 * o.width / 512.0;
  spec.clip_count = std::max(1, o.clip_pool);
  spec.frames_per_clip = o.frames_per_session;
  spec.stop_and_go_fraction = o.stop_and_go_fraction;
  spec.turning_fraction = o.turning_fraction;
  spec.seed = o.seed;
  std::vector<data::Clip> pool;
  for (int i = 0; i < spec.clip_count; ++i) {
    obs::ScopedSpan span(tracer, "bench.render");
    pool.push_back(data::generate_clip(spec, i));
  }
  return pool;
}

/// Agent-side state of one session (mirrors run_serve_scenario's).
struct AgentState {
  const data::Clip* clip = nullptr;
  int clip_index = 0;
  std::unique_ptr<codec::Encoder> encoder;
  std::unique_ptr<core::Preprocessor> preprocessor;
  core::ForegroundExtractor extractor;
  edge::DetectionList belief;
  std::uint64_t belief_frame = 0;
  bool has_belief = false;
  bool need_resync = false;
  std::vector<edge::DetectionList> outcome;
  std::vector<bool> offloaded;
};

serve::ServeNodeConfig node_config(const harness::ServeScenarioOptions& o) {
  serve::ServeNodeConfig cfg = o.node;
  cfg.seed = o.seed;  // the scenario seed governs everything
  return cfg;
}

/// The node plus its agents, constructed as run_serve_scenario does.
/// `observe_codec` additionally attaches the context to every encoder so
/// the codec's own spans appear in a traced pass.
struct Rig {
  Rig(const harness::ServeScenarioOptions& options,
      const std::vector<data::Clip>& pool, obs::ObsContext* obs,
      bool observe_codec)
      : node_cfg(node_config(options)), node(node_cfg) {
    node.set_obs(obs);
    net::UplinkConfig uplink_cfg;
    uplink_cfg.propagation_delay = options.propagation_delay;
    uplink_cfg.head_timeout = options.head_timeout;
    agents.resize(static_cast<std::size_t>(options.sessions));
    for (int i = 0; i < options.sessions; ++i) {
      auto trace = std::make_shared<net::ConstantBandwidth>(
          net::mbps_to_bytes_per_sec(options.mbps));
      auto uplink = std::make_shared<net::Uplink>(trace, uplink_cfg);
      uplink->set_obs(obs);
      node.open_session(std::move(uplink));

      AgentState& agent = agents[static_cast<std::size_t>(i)];
      agent.clip_index = i % static_cast<int>(pool.size());
      agent.clip = &pool[static_cast<std::size_t>(agent.clip_index)];
      codec::EncoderConfig enc_cfg;
      enc_cfg.width = options.width;
      enc_cfg.height = options.height;
      enc_cfg.gop_length = 48;
      enc_cfg.threads = options.encoder_threads;
      agent.encoder = std::make_unique<codec::Encoder>(enc_cfg);
      if (observe_codec) agent.encoder->set_obs(obs);
      if (options.roi_metadata) {
        agent.preprocessor = std::make_unique<core::Preprocessor>(
            core::PreprocessConfig{},
            util::Rng(options.seed).fork(static_cast<std::uint64_t>(i)).seed());
      }
      agent.outcome.resize(static_cast<std::size_t>(options.frames_per_session));
      agent.offloaded.assign(
          static_cast<std::size_t>(options.frames_per_session), false);
    }
  }

  serve::ServeNodeConfig node_cfg;
  serve::ServeNode node;
  std::vector<AgentState> agents;
};

struct Pass {
  harness::ServeScenarioResult result;
  std::string ledger_json;
  std::vector<obs::FrameRecord> ledger;
  /// Host time per captured frame, one sample per capture round (every
  /// session's frame f): the round's time divided by the session count,
  /// so batch dispatches are spread over the frames they serve. Round f
  /// does the same work in every pass.
  std::vector<double> frame_ms;
  double wall_s = 0.0;          ///< construction + loop + scoring
  long delivered_bytes = 0;     ///< bitstream + sidecar of delivered frames
  double fg_area_sum = 0.0;
  long fg_frames = 0;
  long skipped_mbs = 0;
  long inter_mbs = 0;
};

/// One run of the scenario loop observed through `obs`; `traced` turns on
/// its tracer and attaches it to the encoders too.
Pass run_pass(const harness::ServeScenarioOptions& options,
              const std::vector<data::Clip>& pool, bool traced,
              obs::ObsContext& obs) {
  obs.tracer.set_enabled(traced);
  obs::Tracer* tracer = traced ? &obs.tracer : nullptr;
  Pass out;
  const double t0 = now_s();
  Rig rig(options, pool, &obs, traced);
  serve::ServeNode& node = rig.node;
  std::vector<AgentState>& agents = rig.agents;
  const serve::ServeNodeConfig& node_cfg = rig.node_cfg;

  const util::SimTime frame_period = util::from_seconds(1.0 / pool.front().fps);
  const core::OfflineTracker tracker;

  std::vector<serve::JobResult> inbox;
  auto absorb = [&](std::vector<serve::JobResult> results) {
    for (serve::JobResult& r : results) {
      AgentState& agent = agents[r.session_id];
      agent.outcome[r.frame_index] = r.detections;
      agent.offloaded[r.frame_index] = true;
      inbox.push_back(std::move(r));
    }
    std::sort(inbox.begin(), inbox.end(),
              [](const serve::JobResult& a, const serve::JobResult& b) {
                return a.result_at_agent < b.result_at_agent;
              });
  };
  auto deliver_until = [&](util::SimTime now) {
    std::size_t popped = 0;
    while (popped < inbox.size() && inbox[popped].result_at_agent <= now) {
      const serve::JobResult& r = inbox[popped];
      AgentState& agent = agents[r.session_id];
      if (!agent.has_belief || r.frame_index >= agent.belief_frame) {
        agent.belief = r.detections;
        agent.belief_frame = r.frame_index;
        agent.has_belief = true;
      }
      ++popped;
    }
    inbox.erase(inbox.begin(),
                inbox.begin() + static_cast<std::ptrdiff_t>(popped));
  };

  long total_sidecar_bytes = 0;
  out.frame_ms.reserve(static_cast<std::size_t>(options.frames_per_session));
  for (int f = 0; f < options.frames_per_session; ++f) {
    const double round_start = now_s();
    for (int s = 0; s < options.sessions; ++s) {
      obs::ScopedSpan step(tracer, "bench.step");
      AgentState& agent = agents[static_cast<std::size_t>(s)];
      const util::SimTime capture =
          static_cast<util::SimTime>(f) * frame_period +
          static_cast<util::SimTime>(s) * frame_period / options.sessions;

      std::vector<serve::JobResult> done;
      {
        obs::ScopedSpan span(tracer, "bench.node_run_until");
        done = node.run_until(capture);
      }
      absorb(std::move(done));
      deliver_until(capture);

      const obs::FrameTraceContext ctx = obs.ledger.begin_frame(
          static_cast<std::uint32_t>(s), static_cast<std::uint64_t>(f),
          capture, capture + node_cfg.session.deadline);
      obs.tracer.set_sim_now(capture);
      agent.encoder->set_frame_context(ctx);

      const video::Frame& image =
          agent.clip->frames[static_cast<std::size_t>(f)].image;
      codec::MotionField motion;
      {
        obs::ScopedSpan span(tracer, "bench.analyze_motion");
        motion = agent.encoder->analyze_motion(image);
      }
      if (agent.need_resync) agent.encoder->request_intra();
      codec::EncodedFrame encoded;
      {
        obs::ScopedSpan span(tracer, "bench.encode");
        encoded = agent.encoder->encode(image, options.base_qp, nullptr,
                                        motion.empty() ? nullptr : &motion);
      }
      if (encoded.type == codec::FrameType::kInter) {
        out.skipped_mbs += encoded.skipped_mbs;
        out.inter_mbs += static_cast<long>(encoded.skip.size());
      }

      std::vector<std::uint8_t> sidecar;
      if (options.roi_metadata) {
        core::PreprocessResult pre;
        {
          obs::ScopedSpan span(tracer, "bench.preprocess");
          pre = agent.preprocessor->run(motion, agent.clip->camera);
        }
        core::ForegroundResult fg;
        {
          obs::ScopedSpan span(tracer, "bench.foreground");
          fg = agent.extractor.extract(pre, agent.clip->camera);
        }
        out.fg_area_sum += fg.area_fraction(options.width, options.height);
        ++out.fg_frames;
        obs::ScopedSpan span(tracer, "bench.sidecar");
        roi::RoiMetadata meta =
            roi::from_encoded(encoded, options.width, options.height);
        for (const auto& region : fg.regions)
          roi::add_region(meta, region.hull, region.mean_mv);
        sidecar = meta.serialize();
        total_sidecar_bytes += static_cast<long>(sidecar.size());
      }

      const util::SimTime ready =
          capture + options.latencies.analysis + options.latencies.encode;
      obs.tracer.span_at(
          "agent.encode",
          obs::kTrackSessionBase + static_cast<std::uint32_t>(s), capture,
          ready,
          {{"frame", static_cast<long long>(f)},
           {"bytes", static_cast<long long>(encoded.bytes())}},
          ctx.flow_id());
      obs.ledger.stage(ctx, obs::FrameStage::kEncode, capture, ready);
      if (options.roi_metadata)
        obs.ledger.stage(ctx, obs::FrameStage::kSidecar, ready, ready);

      const std::size_t upload = encoded.bytes() + sidecar.size();
      net::TransmitResult tx;
      {
        obs::ScopedSpan span(tracer, "bench.transmit");
        tx = node.session(static_cast<std::uint32_t>(s))
                 .uplink()
                 .transmit_with_timeout(static_cast<double>(upload), ready,
                                        &ctx);
      }

      bool fallback = false;
      if (!tx.delivered) {
        ++node.metrics().session(static_cast<std::uint32_t>(s)).dropped_uplink;
        obs.ledger.outcome(ctx, obs::FrameOutcome::kDroppedUplink,
                           tx.gave_up_at);
        fallback = true;
      } else {
        out.delivered_bytes += static_cast<long>(upload);
        serve::FrameJob job;
        job.session_id = static_cast<std::uint32_t>(s);
        job.frame_index = static_cast<std::uint64_t>(f);
        job.capture_time = capture;
        job.arrival = tx.arrival;
        job.data = std::move(encoded.data);
        job.roi_metadata = std::move(sidecar);
        job.trace = ctx;
        obs::ScopedSpan span(tracer, "bench.node_submit");
        fallback = node.submit(std::move(job)) != serve::AdmissionVerdict::kAdmit;
      }

      if (fallback) {
        agent.need_resync = true;
        if (options.enable_offline_tracking && agent.has_belief) {
          obs::ScopedSpan span(tracer, "bench.track");
          agent.belief = tracker.track(agent.belief, motion, options.width,
                                       options.height);
        }
        agent.outcome[static_cast<std::size_t>(f)] = agent.belief;
      } else {
        agent.need_resync = false;
      }
    }
    out.frame_ms.push_back((now_s() - round_start) * 1e3 / options.sessions);
  }
  {
    std::vector<serve::JobResult> done;
    {
      obs::ScopedSpan span(tracer, "bench.node_drain");
      done = node.drain();
    }
    absorb(std::move(done));
  }

  // Scoring, as run_serve_scenario does it.
  const edge::ChromaDetector gt_detector{node_cfg.server.detector};
  std::vector<std::vector<edge::DetectionList>> truths(pool.size());
  {
    obs::ScopedSpan span(tracer, "bench.gt_detect");
    for (std::size_t c = 0; c < pool.size(); ++c)
      for (const auto& rec : pool[c].frames)
        truths[c].push_back(gt_detector.detect(rec.image));
  }

  obs::ScopedSpan score_span(tracer, "bench.score");
  harness::ServeScenarioResult& result = out.result;
  edge::ApEvaluator all_eval;
  edge::ApEvaluator state_eval[3];
  for (int s = 0; s < options.sessions; ++s) {
    const AgentState& agent = agents[static_cast<std::size_t>(s)];
    const serve::SessionCounters& counters =
        node.metrics().session(static_cast<std::uint32_t>(s));
    edge::ApEvaluator session_eval;
    long offloaded = 0;
    for (int f = 0; f < options.frames_per_session; ++f) {
      const auto fi = static_cast<std::size_t>(f);
      const edge::DetectionList& truth =
          truths[static_cast<std::size_t>(agent.clip_index)][fi];
      session_eval.add_frame(agent.outcome[fi], truth);
      all_eval.add_frame(agent.outcome[fi], truth);
      const auto state =
          static_cast<std::size_t>(agent.clip->frames[fi].motion_state);
      state_eval[state].add_frame(agent.outcome[fi], truth);
      ++result.frames_by_state[state];
      if (agent.offloaded[fi]) ++offloaded;
    }
    harness::ServeSessionResult sr;
    sr.id = static_cast<std::uint32_t>(s);
    sr.frames = options.frames_per_session;
    sr.offloaded = offloaded;
    sr.mot = sr.frames - offloaded;
    sr.dropped_queue = counters.dropped_queue;
    sr.dropped_deadline = counters.dropped_deadline;
    sr.dropped_uplink = counters.dropped_uplink;
    sr.map = session_eval.map();
    sr.mean_e2e_ms = counters.e2e_ms.mean();
    result.sessions.push_back(sr);
  }
  const serve::SessionCounters agg = node.metrics().aggregate();
  result.aggregate_map = all_eval.map();
  result.frames =
      static_cast<long>(options.sessions) * options.frames_per_session;
  result.submitted = agg.submitted;
  result.admitted = agg.admitted;
  result.completed = agg.completed;
  result.dropped_queue = agg.dropped_queue;
  result.dropped_deadline = agg.dropped_deadline;
  result.dropped_uplink = agg.dropped_uplink;
  result.mot = result.frames - agg.completed;
  result.offload_fraction =
      static_cast<double>(agg.completed) / static_cast<double>(result.frames);
  result.mean_e2e_ms = agg.e2e_ms.mean();
  result.p95_e2e_ms = agg.e2e_ms.empty() ? 0.0 : agg.e2e_ms.quantile(0.95);
  result.mean_wait_ms = agg.wait_ms.mean();
  result.mean_batch = agg.batch_size.mean();
  result.mean_queue_depth = agg.queue_depth.mean();
  for (int st = 0; st < 3; ++st)
    if (result.frames_by_state[st] > 0)
      result.map_by_state[st] = state_eval[st].map();
  result.gated = agg.gated;
  result.full_inference = agg.full_inference;
  result.propagated_boxes = agg.propagated_boxes;
  result.sidecar_bytes = total_sidecar_bytes;
  result.mean_gate_work = agg.gate_work.mean();
  result.mean_gated_pixel_fraction = agg.gate_pixel_fraction.mean();
  result.metrics = node.metrics();
  out.wall_s = now_s() - t0;
  out.ledger_json = obs.ledger.to_json();
  out.ledger = obs.ledger.records();
  return out;
}

/// Every deterministic output of run_serve_scenario, for exact comparison.
std::vector<double> outputs(const harness::ServeScenarioResult& r) {
  std::vector<double> v = {
      r.aggregate_map, r.offload_fraction, r.mean_e2e_ms, r.p95_e2e_ms,
      r.mean_wait_ms, r.mean_batch, r.mean_queue_depth,
      static_cast<double>(r.frames), static_cast<double>(r.submitted),
      static_cast<double>(r.admitted), static_cast<double>(r.completed),
      static_cast<double>(r.dropped_queue),
      static_cast<double>(r.dropped_deadline),
      static_cast<double>(r.dropped_uplink), static_cast<double>(r.mot),
      static_cast<double>(r.gated), static_cast<double>(r.full_inference),
      static_cast<double>(r.propagated_boxes),
      static_cast<double>(r.sidecar_bytes), r.mean_gate_work,
      r.mean_gated_pixel_fraction};
  for (int st = 0; st < 3; ++st) {
    v.push_back(r.map_by_state[st]);
    v.push_back(static_cast<double>(r.frames_by_state[st]));
  }
  for (const auto& s : r.sessions) {
    v.push_back(s.map);
    v.push_back(s.mean_e2e_ms);
    v.push_back(static_cast<double>(s.offloaded));
    v.push_back(static_cast<double>(s.dropped_deadline));
  }
  return v;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

util::SampleSet stage_ms(const std::vector<obs::FrameRecord>& records,
                         obs::FrameStage stage) {
  util::SampleSet ms;
  for (const auto& r : records)
    if (r.stage(stage).set) ms.add(r.stage_ms(stage));
  return ms;
}

}  // namespace

bool run_serve_workload(const RunArgs& args, Report& report) {
  if (args.workload != "serve24_roi") return false;
  const harness::ServeScenarioOptions options = serve24_options(args.seed);

  // Set-up: render the clip pool and construct the node and its agents.
  obs::ObsContext setup_obs;
  setup_obs.tracer.set_enabled(args.trace);
  util::SampleSet setup_s;
  std::vector<data::Clip> pool;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    pool = render_pool(options, &setup_obs.tracer);
    obs::ObsContext scratch;
    const Rig rig(options, pool, &scratch, false);
    setup_s.add(now_s() - t0);
  }
  long pool_frames = 0;
  for (const auto& clip : pool) pool_frames += clip.frame_count();

  // Reference: the harness's own scenario (renders its own clips).
  obs::ObsContext ref_obs;
  harness::ServeScenarioOptions ref_options = options;
  ref_options.obs = &ref_obs;
  const harness::ServeScenarioResult ref = harness::run_serve_scenario(ref_options);
  const std::vector<double> ref_out = outputs(ref);
  const std::string ref_ledger = ref_obs.ledger.to_json();

  // Timed phase: whole passes (an untraced run: at least kMinPasses) until
  // the time is up; a traced run alternates untraced and traced passes.
  const long steps_per_pass =
      static_cast<long>(options.sessions) * options.frames_per_session;
  const int per_round = args.trace ? 2 : 1;
  const int min_rounds = args.trace ? 1 : kMinPasses;
  BestOf round_ms;
  BestOf rest_s;  ///< pass time outside the capture rounds
  std::vector<double> pass_s;
  SpanRollup rollup;
  rollup.add(setup_obs.tracer.snapshot());
  Pass first;
  bool have_first = false;
  long attempted = 0;
  long failed = 0;
  long traced_steps = 0;
  long traced_completed = 0;
  int traced_passes = 0;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  const double t_start = now_s();
  int k = 0;
  for (;; ++k) {
    if (k >= min_rounds * per_round && now_s() - t_start >= args.seconds &&
        k % per_round == 0)
      break;
    const bool traced = args.trace && k % 2 == 1;
    obs::ObsContext obs;
    Pass p = run_pass(options, pool, traced, obs);
    attempted += steps_per_pass;
    pass_s.push_back(p.wall_s);
    const bool same = outputs(p.result) == ref_out && p.ledger_json == ref_ledger;
    if (!same) {
      failed += steps_per_pass;
      report.check(false, "pass " + std::to_string(k) +
                              (traced ? " (traced)" : "") +
                              " differs from run_serve_scenario");
    }
    if (traced) {
      rollup.add(obs.tracer.snapshot());
      traced_steps += steps_per_pass;
      traced_completed += p.result.completed;
      traced_wall += p.wall_s;
      ++traced_passes;
    } else {
      untraced_wall += p.wall_s;
      round_ms.add(p.frame_ms);
      double rounds_s = 0.0;
      for (const double ms : p.frame_ms) rounds_s += ms * options.sessions / 1e3;
      rest_s.add({p.wall_s - rounds_s});
    }
    if (!have_first) {
      first = std::move(p);
      have_first = true;
    }
  }
  report.count(attempted, failed);
  note_blocks(report, "pass", pass_s);

  const harness::ServeScenarioResult& r = first.result;
  const serve::SessionCounters agg = r.metrics.aggregate();
  long on_time = 0;
  for (const double ms : agg.e2e_ms.samples())
    if (ms <= kOnTimeMs) ++on_time;
  const double frames = static_cast<double>(r.frames);
  const double resp_p50 = quantile(agg.e2e_ms, 0.5);
  const double kib = static_cast<double>(first.delivered_bytes) / 1024.0 / frames;
  report.deterministic("map", r.aggregate_map);
  report.deterministic("response_ms.p50", resp_p50);
  report.deterministic("response_ms.p95", r.p95_e2e_ms);
  report.deterministic("offload_fraction", r.offload_fraction);
  report.deterministic("on_time_fraction", on_time / frames);
  report.deterministic("uplink_kbytes_per_frame", kib);
  report.deterministic("frames", frames);
  report.deterministic("dropped_deadline", static_cast<double>(r.dropped_deadline));
  Fnv1a ledger_digest;
  ledger_digest.add_bytes(first.ledger_json);
  report.deterministic("ledger_digest32", ledger_digest.value32());

  if (!args.trace) {
    // Host figures: each round's fastest untraced pass, and a pass made of
    // those rounds plus the fastest construction, drain and scoring.
    util::SampleSet frame_ms;
    double pass_best_s = rest_s.best()[0];
    for (const double ms : round_ms.best()) {
      frame_ms.add(ms);
      pass_best_s += ms * options.sessions / 1e3;
    }
    const auto n_rounds = static_cast<long>(frame_ms.count());
    report.note("untraced passes: " + std::to_string(round_ms.repeats()));
    report.metric("setup_s", quantile(setup_s, 0.5), "s", kSetupRepeats);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.metric("frames_per_s",
                  static_cast<double>(steps_per_pass) / pass_best_s, "1/s",
                  attempted);
    report.metric("frame_ms.p50", quantile(frame_ms, 0.5), "ms", n_rounds);
    report.metric("frame_ms.p95", quantile(frame_ms, 0.95), "ms", n_rounds);
    report.metric("map", r.aggregate_map, "ratio", r.frames);
    report.metric("response_ms.p50", resp_p50, "ms", r.completed);
    report.metric("response_ms.p95", r.p95_e2e_ms, "ms", r.completed);
    report.metric("offload_fraction", r.offload_fraction, "ratio", r.frames);
    report.metric("on_time_fraction", on_time / frames, "ratio", r.frames);
    report.metric("uplink_kbytes_per_frame", kib, "KiB", r.frames);
    return true;
  }

  const double ts = static_cast<double>(std::max(1L, traced_steps));
  const auto self = [&](const char* name) { return rollup.get(name).self_ms / ts; };
  const auto incl = [&](const char* name) { return rollup.get(name).incl_ms / ts; };
  const SpanTotals render = rollup.get("bench.render");
  const double node_realize_ms = rollup.get("bench.node_run_until").incl_ms +
                                 rollup.get("bench.node_drain").incl_ms;
  const long trials = rollup.get("codec.inter_trial").count +
                      rollup.get("codec.intra_trial").count;
  const long encodes = rollup.get("codec.encode").count;
  const double sidecar_frames = static_cast<double>(r.gated + r.full_inference);
  double attributed = 0.0;
  double e2e = 0.0;
  for (const auto& rec : first.ledger) {
    if (rec.outcome == obs::FrameOutcome::kCompleted ||
        rec.outcome == obs::FrameOutcome::kCompletedLate) {
      attributed += rec.attributed_ms();
      e2e += rec.e2e_ms();
    }
  }
  const double attribution = ratio(attributed, e2e);

  report.metric("video.render_ms_per_frame",
                ratio(render.incl_ms,
                      static_cast<double>(pool_frames * kSetupRepeats)),
                "ms", pool_frames * kSetupRepeats);
  report.metric("codec.motion_search_ms", self("codec.motion_search"), "ms", traced_steps);
  report.metric("codec.inter_plan_ms", self("codec.inter_plan"), "ms", traced_steps);
  report.metric("codec.inter_trial_ms", self("codec.inter_trial"), "ms", traced_steps);
  report.metric("codec.trials_per_frame",
                ratio(static_cast<double>(trials), static_cast<double>(encodes)),
                "count", encodes);
  // Fixed-QP encode: no rate-control trials to reuse.
  report.metric("codec.trial_reuse_ratio", 0.0, "ratio", 0);
  report.metric("codec.encode_self_ms", self("codec.encode"), "ms", traced_steps);
  report.metric("codec.intra_trial_ms", self("codec.intra_trial"), "ms", traced_steps);
  report.metric("codec.intra_frames",
                ratio(static_cast<double>(rollup.parents_of("codec.intra_trial")),
                      static_cast<double>(std::max(1, traced_passes))),
                "count", steps_per_pass);
  report.metric("codec.mv_harvest_ms", incl("bench.analyze_motion"), "ms", traced_steps);
  // The scenario passes no next-frame hints, so nothing is prefetched.
  report.metric("codec.prefetch_hit_ratio", 0.0, "ratio", 0);
  report.metric("codec.skip_mb_ratio",
                ratio(static_cast<double>(first.skipped_mbs),
                      static_cast<double>(first.inter_mbs)),
                "ratio", first.inter_mbs);
  report.metric("core.preprocess_ms", self("bench.preprocess"), "ms", traced_steps);
  report.metric("core.foreground_ms", self("bench.foreground"), "ms", traced_steps);
  // Fixed QP 28: no QP offset map is built.
  report.metric("core.qp_assign_ms", 0.0, "ms", 0);
  report.metric("core.fg_area_fraction",
                ratio(first.fg_area_sum, static_cast<double>(first.fg_frames)),
                "ratio", first.fg_frames);
  report.metric("core.mot_frames", static_cast<double>(r.mot), "count", r.frames);
  report.metric("roi.sidecar_ms", self("bench.sidecar"), "ms", traced_steps);
  report.metric("roi.sidecar_bytes_per_frame",
                static_cast<double>(r.sidecar_bytes) / frames, "bytes", r.frames);
  report.metric("roi.gated_frame_share",
                ratio(static_cast<double>(r.gated), sidecar_frames), "ratio",
                r.gated + r.full_inference);
  report.metric("roi.lit_pixel_fraction",
                ratio(static_cast<double>(r.gated) * r.mean_gated_pixel_fraction +
                          static_cast<double>(r.full_inference),
                      sidecar_frames),
                "ratio", r.gated + r.full_inference);
  report.metric("net.transmit_ms", self("bench.transmit"), "ms", traced_steps);
  const util::SampleSet uplink_wait =
      stage_ms(first.ledger, obs::FrameStage::kUplinkQueue);
  report.metric("net.uplink_wait_ms.p50", quantile(uplink_wait, 0.5), "ms",
                static_cast<long>(uplink_wait.count()));
  report.metric("edge.infer_ms",
                ratio(node_realize_ms, static_cast<double>(traced_completed)),
                "ms", traced_completed);
  report.metric("edge.gt_detect_ms", incl("bench.gt_detect"), "ms", traced_steps);
  report.metric("edge.score_ms", incl("bench.score"), "ms", traced_steps);
  report.metric("serve.node_ms_per_frame",
                incl("bench.node_run_until") + incl("bench.node_submit") +
                    incl("bench.node_drain"),
                "ms", traced_steps);
  const util::SampleSet admission =
      stage_ms(first.ledger, obs::FrameStage::kAdmissionWait);
  const util::SampleSet batch =
      stage_ms(first.ledger, obs::FrameStage::kBatchWait);
  const util::SampleSet inference =
      stage_ms(first.ledger, obs::FrameStage::kInference);
  report.metric("serve.admission_wait_ms.p50", quantile(admission, 0.5), "ms",
                static_cast<long>(admission.count()));
  report.metric("serve.batch_wait_ms.p50", quantile(batch, 0.5), "ms",
                static_cast<long>(batch.count()));
  report.metric("serve.inference_ms.p50", quantile(inference, 0.5), "ms",
                static_cast<long>(inference.count()));
  report.metric("serve.batch_size_mean", r.mean_batch, "count", r.completed);
  report.metric("serve.queue_depth_mean", r.mean_queue_depth, "count", r.admitted);
  report.metric("serve.dropped_deadline", static_cast<double>(r.dropped_deadline),
                "count", r.submitted);
  report.metric("serve.dropped_queue", static_cast<double>(r.dropped_queue),
                "count", r.submitted);
  report.check(std::abs(attribution - 1.0) < 1e-9,
               "ledger attributes every completed frame's latency");
  report.metric("obs.ledger_attribution", attribution, "ratio", r.completed);
  report.metric("obs.trace_overhead", ratio(traced_wall, untraced_wall), "ratio", k);
  report.metric("obs.traced_frame_ms", incl("bench.step"), "ms", traced_steps);
  report.metric("obs.uninstrumented_ms", self("bench.step"), "ms", traced_steps);

  note_self_times(report, rollup, traced_steps, incl("bench.step"));
  const core::AgentLatencies model;
  report.note("modeled (sim clock) vs measured (host) cost per stage:");
  note_model_row(report, "agent analysis+encode",
                 util::to_millis(model.analysis + model.encode),
                 incl("bench.analyze_motion") + incl("bench.encode") +
                     incl("bench.preprocess") + incl("bench.foreground") +
                     incl("bench.sidecar"));
  note_model_row(report, "edge decode+inference",
                 util::to_millis(options.node.server.decode_latency +
                                 options.node.server.inference_latency),
                 ratio(node_realize_ms, static_cast<double>(traced_completed)));
  return true;
}

}  // namespace perfbench
