#include "harness/experiment.h"

#include <algorithm>

namespace dive::harness {

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kDive: return "DiVE";
    case SchemeKind::kO3: return "O3";
    case SchemeKind::kEaar: return "EAAR";
    case SchemeKind::kDds: return "DDS";
    case SchemeKind::kUniform: return "Uniform";
  }
  return "?";
}

std::shared_ptr<net::BandwidthTrace> NetworkScenario::make_trace(
    double clip_duration_s, std::uint64_t seed) const {
  std::shared_ptr<net::BandwidthTrace> base;
  const double rate = net::mbps_to_bytes_per_sec(mbps);
  if (fluctuation_depth > 0.0) {
    base = std::make_shared<net::FluctuatingBandwidth>(
        rate, fluctuation_depth, util::from_millis(200.0), seed);
  } else {
    base = std::make_shared<net::ConstantBandwidth>(rate);
  }
  if (outage_interval_s > 0.0) {
    auto outages = net::OutageBandwidth::periodic(
        util::from_seconds(first_outage_s),
        util::from_seconds(outage_interval_s),
        util::from_seconds(outage_duration_s),
        util::from_seconds(clip_duration_s + 5.0));
    base = std::make_shared<net::OutageBandwidth>(base, std::move(outages));
  }
  return base;
}

namespace {

codec::EncoderConfig encoder_config_for(const data::Clip& clip,
                                        const SchemeOptions& options) {
  codec::EncoderConfig cfg;
  cfg.width = clip.camera.width();
  cfg.height = clip.camera.height();
  cfg.search.method = options.search;
  cfg.gop_length = options.gop_length;
  cfg.skip_blocks = options.skip_blocks;
  return cfg;
}

}  // namespace

std::unique_ptr<core::AnalyticsScheme> make_scheme(
    SchemeKind kind, const SchemeOptions& options,
    const NetworkScenario& network, const data::Clip& clip,
    double clip_duration_s) {
  net::UplinkConfig uplink_cfg;
  uplink_cfg.propagation_delay = network.propagation_delay;
  uplink_cfg.head_timeout = network.head_timeout;
  auto uplink = std::make_shared<net::Uplink>(
      network.make_trace(clip_duration_s, options.seed), uplink_cfg);

  auto server =
      std::make_shared<edge::EdgeServer>(edge::ServerConfig{}, options.seed);
  const codec::EncoderConfig enc_cfg = encoder_config_for(clip, options);

  switch (kind) {
    case SchemeKind::kDive: {
      core::DiveConfig cfg;
      cfg.fps = clip.fps;
      cfg.qp.fixed_delta = options.fixed_delta;
      cfg.enable_offline_tracking = options.enable_offline_tracking;
      cfg.roi_metadata = options.roi_metadata;
      cfg.seed = options.seed;
      cfg.obs = options.obs;
      return std::make_unique<core::DiveAgent>(cfg, enc_cfg, clip.camera,
                                               uplink, server);
    }
    case SchemeKind::kO3:
      return std::make_unique<baselines::O3Scheme>(clip.fps, enc_cfg, uplink,
                                                   server);
    case SchemeKind::kEaar:
      return std::make_unique<baselines::EaarScheme>(clip.fps, enc_cfg,
                                                     uplink, server);
    case SchemeKind::kDds:
      return std::make_unique<baselines::DdsScheme>(clip.fps, enc_cfg, uplink,
                                                    server, options.seed);
    case SchemeKind::kUniform:
      return std::make_unique<baselines::RawStreamScheme>(clip.fps, enc_cfg,
                                                          uplink, server);
  }
  return nullptr;
}

RunResult run_experiment(SchemeKind kind, const std::vector<data::Clip>& clips,
                         const NetworkScenario& network,
                         const SchemeOptions& options) {
  RunResult result;
  result.scheme = to_string(kind);

  edge::ApEvaluator evaluator;
  std::array<edge::ApEvaluator, 3> state_evaluators;
  util::SampleSet responses;
  util::RunningStats bytes_stats;
  util::RunningStats qp_stats;
  long offloaded = 0;
  long frames = 0;

  // The ground-truth detector mirrors the edge server's.
  const edge::ChromaDetector gt_detector{edge::ServerConfig{}.detector};

  for (const auto& clip : clips) {
    const double duration_s = clip.frame_count() / clip.fps;
    auto scheme = make_scheme(kind, options, network, clip, duration_s);

    for (const auto& rec : clip.frames) {
      const util::SimTime capture = util::from_seconds(rec.timestamp);
      const core::FrameOutcome outcome =
          scheme->process_frame(rec.image, capture);
      const edge::DetectionList truths = gt_detector.detect(rec.image);

      evaluator.add_frame(outcome.detections, truths);
      state_evaluators[static_cast<std::size_t>(rec.motion_state)].add_frame(
          outcome.detections, truths);
      ++result.frames_by_state[static_cast<std::size_t>(rec.motion_state)];

      responses.add(util::to_millis(outcome.response_time));
      bytes_stats.add(static_cast<double>(outcome.bytes_sent) / 1024.0);
      if (outcome.base_qp >= 0) qp_stats.add(outcome.base_qp);
      if (outcome.offloaded) ++offloaded;
      ++frames;
    }
  }

  result.ap_car = evaluator.ap(video::ObjectClass::kCar);
  result.ap_ped = evaluator.ap(video::ObjectClass::kPedestrian);
  result.map = evaluator.map();
  result.mean_response_ms = responses.mean();
  result.p95_response_ms = responses.empty() ? 0.0 : responses.quantile(0.95);
  result.mean_kbytes_per_frame = bytes_stats.mean();
  result.mean_base_qp = qp_stats.mean();
  result.offload_fraction =
      frames > 0 ? static_cast<double>(offloaded) / static_cast<double>(frames)
                 : 0.0;
  result.frames = frames;
  for (int s = 0; s < 3; ++s) {
    result.ap_car_by_state[static_cast<std::size_t>(s)] =
        state_evaluators[static_cast<std::size_t>(s)].ap(
            video::ObjectClass::kCar);
    result.ap_ped_by_state[static_cast<std::size_t>(s)] =
        state_evaluators[static_cast<std::size_t>(s)].ap(
            video::ObjectClass::kPedestrian);
  }
  return result;
}

}  // namespace dive::harness
