// Scenario fuzzer: sweeps {hostile condition} x {motion state} x
// {bandwidth trace} seed tuples through harness::run_experiment (one
// agent, its uplink and a private EdgeServer; no serve node) and asserts
// per-condition accuracy / response-time envelopes
// (DESIGN.md §16). Every case is a deterministic function of its seed
// tuple, so a failing case is reproducible from its one-line repro string
// and a regression in any condition is visible per PR via the
// BENCH_scenarios.json matrix (bench/bench_scenarios.cpp, pinned in
// bench/baselines/).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "harness/experiment.h"

namespace dive::harness {

/// Hostile conditions layered over the procedural world. kClear is the
/// seed-state daylight world; everything else composes the condition
/// models in video::SceneConditions / RenderOptions / CameraVibration.
enum class Condition : std::uint8_t {
  kClear = 0,
  kNight = 1,      ///< global luma scale + elevated sensor noise
  kFog = 2,        ///< depth-dependent contrast attenuation
  kRain = 3,       ///< light haze + deterministic droplet streaks
  kVibration = 4,  ///< high-frequency rotation jitter (stresses R-sampling)
  kTunnel = 5,     ///< scripted global luma steps (scene-change detection)
  kCrowd = 6,      ///< pedestrian-dense occlusion scenes
};
constexpr int kConditionCount = 7;

const char* to_string(Condition c);

/// Ego-motion profile pinned for the whole clip (the dataset generator's
/// profile mix collapsed onto one branch per case).
enum class MotionProfile : std::uint8_t {
  kStraight = 0,
  kStopAndGo = 1,  ///< covers the static (dwell) motion state
  kTurning = 2,
};
constexpr int kMotionProfileCount = 3;

const char* to_string(MotionProfile m);

/// Bandwidth-trace family for the simulated uplink.
enum class BandwidthProfile : std::uint8_t {
  kAmple = 0,        ///< comfortable constant uplink
  kConstrained = 1,  ///< tight mean with deep fluctuation
  kOutage = 2,       ///< periodic hard outages
};
constexpr int kBandwidthProfileCount = 3;

const char* to_string(BandwidthProfile b);

/// One point of the sweep; fully determines dataset + network + scheme.
struct ScenarioCase {
  Condition condition = Condition::kClear;
  MotionProfile motion = MotionProfile::kStraight;
  BandwidthProfile bandwidth = BandwidthProfile::kAmple;
  std::uint64_t seed = 7001;
};

/// One-line reproduction string for a case (printed for every envelope
/// violation; CI uploads them as artifacts).
std::string repro_line(const ScenarioCase& c);

/// Per-condition accuracy / response-time envelope. Bounds are asserted
/// per case; they encode "how much degradation this condition is allowed
/// to cost", not point estimates (the bench matrix tracks those).
struct ScenarioEnvelope {
  double min_map = 0.0;             ///< accuracy floor
  double max_mean_response_ms = 0.0;///< mean per-frame response ceiling
  double max_p95_response_ms = 0.0; ///< tail response ceiling
};

/// Envelope for a condition under a bandwidth profile (hostile networks
/// relax the accuracy floor and raise the latency ceilings).
ScenarioEnvelope envelope_for(Condition c, BandwidthProfile b);

/// Applies the condition preset to a dataset spec (scene conditions,
/// rain streaks, vibration amplitudes, crowd densities). Tunnel timings
/// are derived from the spec's clip duration.
void apply_condition(data::DatasetSpec& spec, Condition c);

/// Network scenario for a bandwidth profile.
NetworkScenario network_for(BandwidthProfile b);

/// Outcome of one case: the run's headline metrics plus the envelope it
/// was judged against and any violations (empty = pass).
struct ScenarioOutcome {
  ScenarioCase scenario;
  RunResult result;
  ScenarioEnvelope envelope;
  std::vector<std::string> violations;

  [[nodiscard]] bool pass() const { return violations.empty(); }
};

struct FuzzerOptions {
  /// Dimensions swept (full cross product x seeds_per_case). Empty
  /// vectors mean "all values of the dimension".
  std::vector<Condition> conditions;
  std::vector<MotionProfile> motions;
  std::vector<BandwidthProfile> bandwidths;
  int seeds_per_case = 1;

  // Clip shape per case (kept small: the sweep is the point, not the
  // per-case sample size).
  int width = 256;
  int height = 144;
  int frames_per_clip = 48;
  double fps = 12.0;

  SchemeKind scheme = SchemeKind::kDive;
};

struct FuzzerReport {
  std::vector<ScenarioOutcome> outcomes;
  int failures = 0;
  /// repro_line() of every failing case, in sweep order.
  std::vector<std::string> failing_repro_lines;
};

/// Runs the sweep. Deterministic: same options -> same report.
FuzzerReport run_scenario_fuzzer(const FuzzerOptions& options = {});

}  // namespace dive::harness
