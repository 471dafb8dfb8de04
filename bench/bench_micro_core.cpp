// Microbenchmarks of DiVE's per-frame analytics pipeline: preprocessing,
// ground estimation, clustering, QP-map construction, offline tracking,
// and AP evaluation. These are the costs that must stay small on a
// resource-constrained agent. BM_Detect times the edge's chroma detector
// on a rendered frame, raw (the ground-truth pass) and decoded.
#include <benchmark/benchmark.h>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/foreground_extractor.h"
#include "core/offline_tracker.h"
#include "core/preprocess.h"
#include "core/qp_assigner.h"
#include "data/dataset.h"
#include "edge/detector.h"
#include "edge/evaluator.h"

namespace {

using namespace dive;

const geom::PinholeCamera kCamera(403.0, 512, 288);

codec::MotionField scene_field() {
  codec::MotionField field(32, 18);
  for (int row = 0; row < 18; ++row)
    for (int col = 0; col < 32; ++col) {
      const geom::Vec2 p = kCamera.to_centered(field.mb_center(col, row));
      geom::Vec2 mv{};
      if (p.y > 4.0)
        mv = core::translational_mv(p, 0.9, 403.0 * 1.5 / p.y);
      if (col >= 14 && col <= 17 && row >= 9 && row <= 12)
        mv = core::translational_mv(p, 0.9, 18.0) + geom::Vec2{4.0, 0.0};
      field.at(col, row) = {static_cast<int>(std::lround(mv.x * 2)),
                            static_cast<int>(std::lround(mv.y * 2))};
    }
  return field;
}

void BM_Preprocess(benchmark::State& state) {
  core::Preprocessor pre({}, 1);
  const auto field = scene_field();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.run(field, kCamera));
  }
}
BENCHMARK(BM_Preprocess);

void BM_GroundEstimation(benchmark::State& state) {
  core::Preprocessor pre({}, 2);
  const auto prep = pre.run(scene_field(), kCamera);
  const core::GroundEstimator est;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate(prep, kCamera));
  }
}
BENCHMARK(BM_GroundEstimation);

void BM_ForegroundExtraction(benchmark::State& state) {
  core::Preprocessor pre({}, 3);
  const auto prep = pre.run(scene_field(), kCamera);
  core::ForegroundExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(prep, kCamera));
  }
}
BENCHMARK(BM_ForegroundExtraction);

void BM_QpMapConstruction(benchmark::State& state) {
  core::Preprocessor pre({}, 4);
  const auto prep = pre.run(scene_field(), kCamera);
  core::ForegroundExtractor extractor;
  const auto fg = extractor.extract(prep, kCamera);
  const core::QpAssigner assigner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(assigner.assign(fg, 32, 18));
  }
}
BENCHMARK(BM_QpMapConstruction);

void BM_OfflineTracking(benchmark::State& state) {
  const core::OfflineTracker tracker;
  const auto field = scene_field();
  edge::DetectionList boxes;
  for (int i = 0; i < 8; ++i) {
    boxes.push_back({video::ObjectClass::kCar,
                     {40.0 * i, 150, 40.0 * i + 36, 180}, 0.8});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.track(boxes, field, 512, 288));
  }
}
BENCHMARK(BM_OfflineTracking);

void BM_ApEvaluation(benchmark::State& state) {
  edge::DetectionList dets, truths;
  for (int i = 0; i < 12; ++i) {
    const geom::Box b{30.0 * i, 100, 30.0 * i + 25, 140};
    truths.push_back({video::ObjectClass::kCar, b, 1.0});
    dets.push_back({video::ObjectClass::kCar, b.shifted({2, 1}), 0.9});
  }
  for (auto _ : state) {
    edge::ApEvaluator ev;
    for (int f = 0; f < 10; ++f) ev.add_frame(dets, truths);
    benchmark::DoNotOptimize(ev.map());
  }
}
BENCHMARK(BM_ApEvaluation);

// The detector on frame 4 of a rendered 512x384 RobotCar-like clip:
// Arg 0 the raw frame, Arg 1 that frame after a 2 Mbps encode/decode.
void BM_Detect(benchmark::State& state) {
  const bool decoded = state.range(0) != 0;
  const data::DatasetSpec spec = data::robotcar_like(1, 5);
  const data::Clip clip = data::generate_clip(spec, 0);
  video::Frame frame = clip.frames.back().image;
  if (decoded) {
    codec::Encoder enc(
        {.width = spec.width, .height = spec.height, .threads = 1});
    codec::Decoder dec;
    const auto target = static_cast<std::size_t>(2e6 / 8 / spec.fps);
    for (const auto& rec : clip.frames)
      frame = dec.decode(enc.encode_to_target(rec.image, target).data).frame;
  }
  const edge::ChromaDetector detector;
  for (auto _ : state) benchmark::DoNotOptimize(detector.detect(frame));
  state.SetLabel(decoded ? "decoded" : "raw");
}
BENCHMARK(BM_Detect)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
