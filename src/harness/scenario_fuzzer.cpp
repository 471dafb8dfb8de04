#include "harness/scenario_fuzzer.h"

#include <sstream>

namespace dive::harness {

namespace {

/// Seed of the first case; every tuple's seed is offset from it.
constexpr std::uint64_t kBaseSeed = 7001;
/// Clips rendered per case and their shape (kept small: the sweep is the
/// point, not the per-case sample size). Every case runs DiVE.
constexpr int kClipsPerCase = 1;
constexpr int kClipWidth = 256;
constexpr int kClipHeight = 144;
constexpr double kClipFps = 12.0;

}  // namespace

const char* to_string(Condition c) {
  switch (c) {
    case Condition::kClear: return "clear";
    case Condition::kNight: return "night";
    case Condition::kFog: return "fog";
    case Condition::kRain: return "rain";
    case Condition::kVibration: return "vibration";
    case Condition::kTunnel: return "tunnel";
    case Condition::kCrowd: return "crowd";
  }
  return "?";
}

const char* to_string(MotionProfile m) {
  switch (m) {
    case MotionProfile::kStraight: return "straight";
    case MotionProfile::kStopAndGo: return "stop_and_go";
    case MotionProfile::kTurning: return "turning";
  }
  return "?";
}

const char* to_string(BandwidthProfile b) {
  switch (b) {
    case BandwidthProfile::kAmple: return "ample";
    case BandwidthProfile::kConstrained: return "constrained";
    case BandwidthProfile::kOutage: return "outage";
  }
  return "?";
}

std::string repro_line(const ScenarioCase& c) {
  std::ostringstream os;
  os << "scenario_fuzzer --condition " << to_string(c.condition)
     << " --motion " << to_string(c.motion) << " --bandwidth "
     << to_string(c.bandwidth) << " --seed " << c.seed;
  return os.str();
}

void apply_condition(data::DatasetSpec& spec, Condition c) {
  switch (c) {
    case Condition::kClear:
      break;
    case Condition::kNight:
      // Low light: dimmed illumination (which also compresses the
      // detector's chroma keys) plus elevated sensor noise.
      spec.conditions.luma_scale = 0.45;
      spec.luma_noise_amplitude = 4.0;
      break;
    case Condition::kFog:
      // ~30 m visibility half-life; far objects haze out first.
      spec.conditions.fog_attenuation = 0.035;
      spec.conditions.fog_luma = 155.0;
      break;
    case Condition::kRain:
      // Light haze + on-lens droplet streaks + wetter sensor noise.
      spec.conditions.fog_attenuation = 0.015;
      spec.rain_streak_density = 0.45;
      spec.luma_noise_amplitude = 2.5;
      break;
    case Condition::kVibration:
      // Drone/robot mount: ~0.2-0.25 deg rotation jitter at 9 Hz, far
      // above the road-surface wobble band. Phases are drawn per clip
      // from the clip's forked RNG stream (data/dataset.cpp).
      spec.vibration.pitch_amplitude = 0.0035;
      spec.vibration.yaw_amplitude = 0.004;
      spec.vibration.frequency = 9.0;
      break;
    case Condition::kTunnel: {
      // Scripted luma steps at ~30% and ~62% of the clip: entry and exit
      // are the two global steps the encoder's scene-change detection
      // must answer with forced I-frames.
      const double duration = spec.frames_per_clip / spec.fps;
      video::TunnelSegment seg;
      seg.enter_t = 0.30 * duration;
      seg.exit_t = 0.62 * duration;
      seg.luma_scale = 0.25;
      spec.conditions.tunnels = {seg};
      break;
    }
    case Condition::kCrowd:
      // Pedestrian-dense urban block: heavy mutual occlusion plus more
      // parked cars to occlude against.
      spec.pedestrians_per_100m = 16.0;
      spec.parked_cars_per_100m = 7.0;
      spec.moving_cars_per_100m = 3.0;
      break;
  }
}

NetworkScenario network_for(BandwidthProfile b) {
  NetworkScenario net;
  switch (b) {
    case BandwidthProfile::kAmple:
      net.mbps = 6.0;
      break;
    case BandwidthProfile::kConstrained:
      net.mbps = 1.2;
      net.fluctuation_depth = 0.5;
      break;
    case BandwidthProfile::kOutage:
      net.mbps = 2.5;
      net.outage_interval_s = 2.5;
      net.outage_duration_s = 0.8;
      net.first_outage_s = 1.0;
      break;
  }
  return net;
}

ScenarioEnvelope envelope_for(Condition c, BandwidthProfile b) {
  // Accuracy floors: how much of the clean-daylight mAP the condition is
  // allowed to cost. Conditions that erode the chroma signal (night,
  // fog, tunnel) get lower floors by design — the envelope asserts
  // "degrades, but the pipeline still tracks", not "nothing happened".
  ScenarioEnvelope env;
  switch (c) {
    case Condition::kClear: env.min_map = 0.60; break;
    case Condition::kNight: env.min_map = 0.30; break;
    // Fog has the heaviest seed tail (a turning clip can spend most of
    // its frames deep in the haze), so its floor sits lowest.
    case Condition::kFog: env.min_map = 0.20; break;
    case Condition::kRain: env.min_map = 0.40; break;
    case Condition::kVibration: env.min_map = 0.45; break;
    case Condition::kTunnel: env.min_map = 0.25; break;
    case Condition::kCrowd: env.min_map = 0.40; break;
  }
  // Response-time ceilings come from the network, not the weather: the
  // uplink is the bottleneck in every condition.
  switch (b) {
    case BandwidthProfile::kAmple:
      env.max_mean_response_ms = 250.0;
      env.max_p95_response_ms = 450.0;
      break;
    case BandwidthProfile::kConstrained:
      env.min_map *= 0.85;
      env.max_mean_response_ms = 450.0;
      env.max_p95_response_ms = 800.0;
      break;
    case BandwidthProfile::kOutage:
      env.min_map *= 0.70;
      env.max_mean_response_ms = 600.0;
      env.max_p95_response_ms = 1500.0;
      break;
  }
  return env;
}

namespace {

std::vector<Condition> all_conditions() {
  std::vector<Condition> v;
  for (int i = 0; i < kConditionCount; ++i)
    v.push_back(static_cast<Condition>(i));
  return v;
}

std::vector<MotionProfile> all_motions() {
  std::vector<MotionProfile> v;
  for (int i = 0; i < kMotionProfileCount; ++i)
    v.push_back(static_cast<MotionProfile>(i));
  return v;
}

std::vector<BandwidthProfile> all_bandwidths() {
  std::vector<BandwidthProfile> v;
  for (int i = 0; i < kBandwidthProfileCount; ++i)
    v.push_back(static_cast<BandwidthProfile>(i));
  return v;
}

data::DatasetSpec spec_for(const ScenarioCase& c, const FuzzerOptions& opt) {
  data::DatasetSpec spec;
  spec.kind = data::DatasetKind::kNuScenesLike;
  spec.width = kClipWidth;
  spec.height = kClipHeight;
  // Field-of-view-preserving focal scaling (nuScenes-like intrinsics).
  spec.focal_px = 1260.0 * kClipWidth / 1600.0;
  spec.fps = kClipFps;
  spec.clip_count = kClipsPerCase;
  spec.frames_per_clip = opt.frames_per_clip;
  spec.seed = c.seed;
  // Collapse the profile mix onto the pinned motion branch.
  switch (c.motion) {
    case MotionProfile::kStraight:
      spec.stop_and_go_fraction = 0.0;
      spec.turning_fraction = 0.0;
      break;
    case MotionProfile::kStopAndGo:
      spec.stop_and_go_fraction = 1.0;
      spec.turning_fraction = 0.0;
      break;
    case MotionProfile::kTurning:
      spec.stop_and_go_fraction = 0.0;
      spec.turning_fraction = 1.0;
      break;
  }
  apply_condition(spec, c.condition);
  return spec;
}

void check_envelope(ScenarioOutcome& out) {
  const auto violate = [&out](const std::string& what) {
    out.violations.push_back(what + " [" + repro_line(out.scenario) + "]");
  };
  std::ostringstream os;
  if (out.result.map < out.envelope.min_map) {
    os.str("");
    os << "mAP " << out.result.map << " < floor " << out.envelope.min_map;
    violate(os.str());
  }
  if (out.result.mean_response_ms > out.envelope.max_mean_response_ms) {
    os.str("");
    os << "mean response " << out.result.mean_response_ms << " ms > ceiling "
       << out.envelope.max_mean_response_ms;
    violate(os.str());
  }
  if (out.result.p95_response_ms > out.envelope.max_p95_response_ms) {
    os.str("");
    os << "p95 response " << out.result.p95_response_ms << " ms > ceiling "
       << out.envelope.max_p95_response_ms;
    violate(os.str());
  }
}

}  // namespace

FuzzerReport run_scenario_fuzzer(const FuzzerOptions& options) {
  const std::vector<Condition> conditions =
      options.conditions.empty() ? all_conditions() : options.conditions;
  const std::vector<MotionProfile> motions =
      options.motions.empty() ? all_motions() : options.motions;
  const std::vector<BandwidthProfile> bandwidths =
      options.bandwidths.empty() ? all_bandwidths() : options.bandwidths;

  FuzzerReport report;
  for (std::size_t ci = 0; ci < conditions.size(); ++ci) {
    for (std::size_t mi = 0; mi < motions.size(); ++mi) {
      for (std::size_t bi = 0; bi < bandwidths.size(); ++bi) {
        for (int s = 0; s < options.seeds_per_case; ++s) {
          ScenarioCase c;
          c.condition = conditions[ci];
          c.motion = motions[mi];
          c.bandwidth = bandwidths[bi];
          // Stable per-tuple seed: independent of which subset of the
          // cross product a caller sweeps.
          c.seed = kBaseSeed +
                   static_cast<std::uint64_t>(c.condition) * 9176ULL +
                   static_cast<std::uint64_t>(c.motion) * 389ULL +
                   static_cast<std::uint64_t>(c.bandwidth) * 53ULL +
                   static_cast<std::uint64_t>(s) * 100003ULL;

          const data::DatasetSpec spec = spec_for(c, options);
          const std::vector<data::Clip> clips = data::generate_dataset(spec);

          SchemeOptions scheme_opt;
          scheme_opt.seed = c.seed;
          ScenarioOutcome out;
          out.scenario = c;
          out.envelope = envelope_for(c.condition, c.bandwidth);
          out.result = run_experiment(SchemeKind::kDive, clips,
                                      network_for(c.bandwidth), scheme_opt);
          check_envelope(out);
          if (!out.pass()) {
            ++report.failures;
            report.failing_repro_lines.push_back(repro_line(c));
          }
          report.outcomes.push_back(std::move(out));
        }
      }
    }
  }
  return report;
}

}  // namespace dive::harness
