// Microbenchmarks of the codec substrate (google-benchmark): transform,
// quantization, SAD kernels (scalar vs. SIMD dispatch), the five
// motion-search methods, and full frame encode/decode.
//
// Besides the google-benchmark suite, main() emits four machine-readable
// records (bench_record.h, schema-checked in CI):
//   BENCH_micro_sad.json      scalar vs. dispatched SAD kernel timing
//   BENCH_micro_sse.json      scalar vs. dispatched PSNR/SSE kernel timing
//   BENCH_micro_hme.json      hierarchical pyramid search vs. the other
//                             methods on a synthetic driving pan (time +
//                             PSNR), plus the SKIP rate on static frames
//   BENCH_micro_obs.json      observability tax: span site cost with a
//                             null context / disabled tracer / enabled
//                             tracer, and the ledger per-frame record
// Set DIVE_BENCH_RECORDS_ONLY=1 to emit only the records and skip the
// google-benchmark run (the CI smoke mode).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_record.h"
#include "codec/dct.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/motion_search.h"
#include "codec/quant.h"
#include "codec/sad_kernels.h"
#include "video/sse_kernels.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace dive;

video::Frame textured_frame(int w, int h, std::uint64_t seed) {
  video::Frame f(w, h);
  util::Rng rng(seed);
  for (auto& px : f.y.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(20, 235));
  for (auto& px : f.u.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(110, 150));
  for (auto& px : f.v.data)
    px = static_cast<std::uint8_t>(rng.uniform_int(110, 150));
  return f;
}

void BM_ForwardDct(benchmark::State& state) {
  util::Rng rng(1);
  codec::Block8x8 in, out;
  for (auto& v : in) v = rng.uniform(-128, 128);
  for (auto _ : state) {
    codec::forward_dct(in, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ForwardDct);

void BM_InverseDct(benchmark::State& state) {
  util::Rng rng(2);
  codec::Block8x8 in, out;
  for (auto& v : in) v = rng.uniform(-512, 512);
  for (auto _ : state) {
    codec::inverse_dct(in, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_InverseDct);

void BM_Quantize(benchmark::State& state) {
  util::Rng rng(3);
  codec::Block8x8 in;
  codec::QuantBlock levels;
  for (auto& v : in) v = rng.uniform(-512, 512);
  for (auto _ : state) {
    codec::quantize(in, static_cast<int>(state.range(0)), levels);
    benchmark::DoNotOptimize(levels);
  }
}
BENCHMARK(BM_Quantize)->Arg(10)->Arg(30)->Arg(50);

void BM_Sad16x16(benchmark::State& state) {
  const auto frame = textured_frame(256, 256, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::sad_16x16(frame.y, frame.y, 64, 64,
                         {static_cast<int>(state.range(0)), 2}));
  }
}
BENCHMARK(BM_Sad16x16)->Arg(0)->Arg(1);  // full-pel vs half-pel path

// Raw kernel comparison: Arg(0) canonical scalar, Arg(1) the dispatched
// kernel (SSE2/AVX2/NEON when available). Sweeps block positions so the
// working set exceeds one cache line pattern.
void BM_SadKernel(benchmark::State& state) {
  const auto cur = textured_frame(256, 256, 4);
  const auto ref = textured_frame(256, 256, 14);
  const codec::Sad16Fn fn = state.range(0) != 0 ? codec::sad_16x16_fn()
                                                : &codec::sad_16x16_scalar;
  int pos = 0;
  for (auto _ : state) {
    const int x = (pos * 37) % (256 - 16);
    const int y = (pos * 17) % (256 - 16);
    ++pos;
    benchmark::DoNotOptimize(
        fn(&cur.y.data[static_cast<std::size_t>(y) * 256 + x], 256,
           &ref.y.data[static_cast<std::size_t>(y) * 256 + ((x + 8) % (256 - 16))], 256));
  }
  state.SetLabel(state.range(0) != 0
                     ? codec::to_string(codec::active_sad_kernel())
                     : "scalar");
}
BENCHMARK(BM_SadKernel)->Arg(0)->Arg(1);

// PSNR accumulation kernel (video/sse_kernels.h): Arg(0) canonical
// scalar, Arg(1) the dispatched kernel, over a full 256x256 plane per
// call — the shape psnr_y pays once per encoded frame.
void BM_SseKernel(benchmark::State& state) {
  const auto cur = textured_frame(256, 256, 4);
  const auto ref = textured_frame(256, 256, 14);
  const dive::video::SseU8Fn fn = state.range(0) != 0
                                      ? dive::video::sse_u8_fn()
                                      : &dive::video::sse_u8_scalar;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fn(cur.y.data.data(), ref.y.data.data(), cur.y.data.size()));
  }
  state.SetLabel(state.range(0) != 0
                     ? dive::video::to_string(dive::video::active_sse_kernel())
                     : "scalar");
}
BENCHMARK(BM_SseKernel)->Arg(0)->Arg(1);

void BM_MotionSearchMethod(benchmark::State& state) {
  const auto cur = textured_frame(256, 128, 5);
  const auto ref = textured_frame(256, 128, 6);
  codec::MotionSearchConfig cfg;
  cfg.method = static_cast<codec::MotionSearchMethod>(state.range(0));
  const codec::MotionSearcher searcher(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.search_frame(cur.y, ref.y));
  }
  state.SetLabel(codec::to_string(cfg.method));
}
BENCHMARK(BM_MotionSearchMethod)->DenseRange(0, 5);

/// Structured driving-style scene: road-side checker texture and a
/// global horizontal pan of `shift` pixels — real matchable content, in
/// contrast to textured_frame's per-pixel noise, so search quality
/// (PSNR) is meaningful and the pan exceeds pattern-search basins.
video::Frame driving_frame(int w, int h, int shift) {
  video::Frame f(w, h);
  util::Rng rng(77);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const int xs = x - shift;
      double v = 70 + 0.2 * xs + 0.15 * y;
      if ((xs / 16 + y / 12) % 2 == 0) v += 45;
      v += rng.uniform(-3, 3);  // same noise field every call (seed fixed)
      f.y.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x) {
      f.u.at(x, y) = static_cast<std::uint8_t>(118 + ((x - shift / 2) / 9) % 16);
      f.v.at(x, y) = static_cast<std::uint8_t>(132 + (y / 7) % 10);
    }
  return f;
}

// Inter encode of a fast pan under each search method; counters report
// the SKIP rate the encoder achieved. HME should sit near pattern-search
// time while matching exhaustive-search quality on the pan.
void BM_EncodeHme(benchmark::State& state) {
  const auto method = static_cast<codec::MotionSearchMethod>(state.range(0));
  codec::Encoder enc(
      {.width = 256, .height = 128, .search = {.method = method}});
  enc.encode(driving_frame(256, 128, 0), 28);
  const auto frame = driving_frame(256, 128, 18);
  long skipped = 0, frames = 0;
  for (auto _ : state) {
    const auto out = enc.encode(frame, 28);
    benchmark::DoNotOptimize(out);
    skipped += out.skipped_mbs;
    ++frames;
  }
  const double mbs = (256.0 / 16.0) * (128.0 / 16.0);
  state.counters["skip_rate"] =
      static_cast<double>(skipped) / (mbs * static_cast<double>(std::max(frames, 1L)));
  state.SetLabel(codec::to_string(method));
}
BENCHMARK(BM_EncodeHme)
    ->Arg(static_cast<int>(codec::MotionSearchMethod::kHex))
    ->Arg(static_cast<int>(codec::MotionSearchMethod::kEsa))
    ->Arg(static_cast<int>(codec::MotionSearchMethod::kTesa))
    ->Arg(static_cast<int>(codec::MotionSearchMethod::kHme));

void BM_EncodeInter(benchmark::State& state) {
  codec::Encoder enc({.width = 256, .height = 128});
  enc.encode(textured_frame(256, 128, 7), 26);
  const auto frame = textured_frame(256, 128, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(frame, 26));
  }
}
BENCHMARK(BM_EncodeInter);

// Same encode with an observability context attached. Arg(0): tracing
// disabled — the instrumentation cost is a null/relaxed-atomic check per
// stage and must stay within ~2% of BM_EncodeInter. Arg(1): tracing
// enabled, showing the full recording cost.
void BM_EncodeInterObs(benchmark::State& state) {
  obs::ObsContext ctx;
  ctx.tracer.set_enabled(state.range(0) != 0);
  codec::Encoder enc({.width = 256, .height = 128});
  enc.set_obs(&ctx);
  enc.encode(textured_frame(256, 128, 7), 26);
  const auto frame = textured_frame(256, 128, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(frame, 26));
    if (ctx.tracer.event_count() > 1u << 20) ctx.tracer.clear();
  }
  state.SetLabel(state.range(0) != 0 ? "tracing" : "obs-attached-disabled");
}
BENCHMARK(BM_EncodeInterObs)->Arg(0)->Arg(1);

void BM_EncodeInterThreads(benchmark::State& state) {
  codec::Encoder enc(
      {.width = 256, .height = 128, .threads = static_cast<int>(state.range(0))});
  enc.encode(textured_frame(256, 128, 7), 26);
  const auto frame = textured_frame(256, 128, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(frame, 26));
  }
}
BENCHMARK(BM_EncodeInterThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MotionSearchThreads(benchmark::State& state) {
  const auto cur = textured_frame(256, 128, 5);
  const auto ref = textured_frame(256, 128, 6);
  const codec::MotionSearcher searcher;
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.search_frame(cur.y, ref.y, &pool));
  }
}
BENCHMARK(BM_MotionSearchThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_EncodeToTarget(benchmark::State& state) {
  codec::Encoder enc({.width = 256, .height = 128});
  enc.encode(textured_frame(256, 128, 9), 26);
  const auto frame = textured_frame(256, 128, 10);
  int trials = 0, full_passes = 0, iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode_to_target(frame, 6000));
    trials += enc.rate_control_stats().trials_attempted;
    full_passes += enc.rate_control_stats().full_transform_passes;
    ++iters;
  }
  state.counters["trials/frame"] =
      static_cast<double>(trials) / std::max(iters, 1);
  state.counters["full_passes/frame"] =
      static_cast<double>(full_passes) / std::max(iters, 1);
}
BENCHMARK(BM_EncodeToTarget);

void BM_Decode(benchmark::State& state) {
  codec::Encoder enc({.width = 256, .height = 128});
  const auto intra = enc.encode(textured_frame(256, 128, 11), 26);
  for (auto _ : state) {
    codec::Decoder dec;
    benchmark::DoNotOptimize(dec.decode(intra.data));
  }
}
BENCHMARK(BM_Decode);

// --- Machine-readable records (bench_record.h) ----------------------

using Clock = std::chrono::steady_clock;

/// Median-of-reps wall time of `fn()` in nanoseconds.
template <typename Fn>
double timed_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// BENCH_micro_sad.json: per-call cost of the canonical scalar kernel
/// vs. the runtime-dispatched kernel over a position sweep, plus the
/// resulting speedup. The SIMD metric reports the dispatched kernel even
/// when that IS scalar (DIVE_FORCE_SCALAR / no SIMD), so the record
/// stays well-formed on every matrix leg.
void emit_sad_record() {
  const auto cur = textured_frame(256, 256, 4);
  const auto ref = textured_frame(256, 256, 14);
  constexpr int kCalls = 200000;
  const auto sweep = [&](codec::Sad16Fn fn) {
    std::uint64_t acc = 0;
    for (int i = 0; i < kCalls; ++i) {
      const int x = (i * 37) % (256 - 16);
      const int y = (i * 17) % (256 - 16);
      acc += fn(&cur.y.data[static_cast<std::size_t>(y) * 256 + x], 256,
                &ref.y.data[static_cast<std::size_t>(y) * 256 + ((x + 8) % (256 - 16))], 256);
    }
    benchmark::DoNotOptimize(acc);
  };
  const double scalar_ns =
      timed_ns(5, [&] { sweep(&codec::sad_16x16_scalar); }) / kCalls;
  const double simd_ns =
      timed_ns(5, [&] { sweep(codec::sad_16x16_fn()); }) / kCalls;

  dive::bench::BenchRecorder rec("micro_sad");
  rec.add("sad16.scalar", scalar_ns, "ns/call");
  rec.add(std::string("sad16.") + codec::to_string(codec::active_sad_kernel()),
          simd_ns, "ns/call");
  rec.add("sad16.speedup", simd_ns > 0 ? scalar_ns / simd_ns : 0.0, "x");
  rec.write();
}

/// BENCH_micro_sse.json: full-plane SSE accumulation (the PSNR hot loop)
/// with the canonical scalar kernel vs. the dispatched one. Same
/// matrix-leg caveat as the SAD record.
void emit_sse_record() {
  const auto cur = textured_frame(256, 256, 4);
  const auto ref = textured_frame(256, 256, 14);
  constexpr int kCalls = 2000;
  const auto sweep = [&](dive::video::SseU8Fn fn) {
    std::uint64_t acc = 0;
    for (int i = 0; i < kCalls; ++i)
      acc += fn(cur.y.data.data(), ref.y.data.data(), cur.y.data.size());
    benchmark::DoNotOptimize(acc);
  };
  const double scalar_ns =
      timed_ns(5, [&] { sweep(&dive::video::sse_u8_scalar); }) / kCalls;
  const double simd_ns =
      timed_ns(5, [&] { sweep(dive::video::sse_u8_fn()); }) / kCalls;

  dive::bench::BenchRecorder rec("micro_sse");
  rec.add("sse_plane.scalar", scalar_ns, "ns/call");
  rec.add(std::string("sse_plane.") +
              dive::video::to_string(dive::video::active_sse_kernel()),
          simd_ns, "ns/call");
  rec.add("sse_plane.speedup", simd_ns > 0 ? scalar_ns / simd_ns : 0.0, "x");
  rec.write();
}

/// BENCH_micro_hme.json: per-frame encode time and reconstruction PSNR
/// of a 6-frame synthetic driving pan (18 px/frame — beyond the hex
/// descent basin) for hex/esa/tesa/hme, plus the SKIP rate on a static
/// sequence. The headline claims: hme beats the exhaustive searches on
/// wall-clock at equal-or-better PSNR, and static content produces a
/// nonzero forced-SKIP rate.
void emit_hme_record() {
  constexpr int kFrames = 6;
  std::vector<video::Frame> pan;
  for (int i = 0; i < kFrames; ++i)
    pan.push_back(driving_frame(256, 128, i * 18));

  dive::bench::BenchRecorder rec("micro_hme");
  for (const auto method :
       {codec::MotionSearchMethod::kHex, codec::MotionSearchMethod::kEsa,
        codec::MotionSearchMethod::kTesa, codec::MotionSearchMethod::kHme}) {
    double psnr_acc = 0.0;
    const double seq_ns = timed_ns(3, [&] {
      codec::Encoder enc(
          {.width = 256, .height = 128, .search = {.method = method}});
      psnr_acc = 0.0;
      for (const auto& f : pan) {
        const auto out = enc.encode(f, 28);
        benchmark::DoNotOptimize(out);
        psnr_acc += out.psnr_y;
      }
    });
    const std::string name = codec::to_string(method);
    rec.add("encode." + name, seq_ns / 1e6 / kFrames, "ms/frame");
    rec.add("psnr." + name, psnr_acc / kFrames, "dB");
  }

  // SKIP rate on static frames: same source encoded repeatedly.
  codec::Encoder enc({.width = 256, .height = 128});
  const auto still = driving_frame(256, 128, 0);
  (void)enc.encode(still, 28);  // intra
  for (int i = 0; i < 3; ++i) (void)enc.encode(still, 28);
  const auto& skip = enc.skip_stats();
  rec.add("skip.static_rate",
          skip.inter_mbs > 0 ? static_cast<double>(skip.skipped_mbs) /
                                   static_cast<double>(skip.inter_mbs)
                             : 0.0,
          "fraction");
  rec.write();
}

// Observability overhead: cost of one DIVE_OBS_SPAN at a hot-path call
// site in its three runtime states — null context (unobserved run),
// attached-but-disabled tracer, and enabled tracer — plus the frame
// ledger's per-frame record cost. The enabled variants clear the sink
// every batch so memory stays bounded; the clear cost amortizes to
// noise and is part of real periodic-export usage anyway.
constexpr int kObsBatch = 1 << 12;

void BM_ObsSpanNullContext(benchmark::State& state) {
  obs::ObsContext* obs = nullptr;
  for (auto _ : state) {
    DIVE_OBS_SPAN(span, obs, "codec.encode", obs::kTrackCodec);
    benchmark::DoNotOptimize(obs);
  }
}
BENCHMARK(BM_ObsSpanNullContext);

void BM_ObsSpanDisabledTracer(benchmark::State& state) {
  obs::ObsContext ctx;  // tracer default-disabled
  obs::ObsContext* obs = &ctx;
  for (auto _ : state) {
    DIVE_OBS_SPAN(span, obs, "codec.encode", obs::kTrackCodec);
    benchmark::DoNotOptimize(obs);
  }
}
BENCHMARK(BM_ObsSpanDisabledTracer);

void BM_ObsSpanEnabledTracer(benchmark::State& state) {
  obs::ObsContext ctx;
  ctx.tracer.set_enabled(true);
  obs::ObsContext* obs = &ctx;
  int n = 0;
  for (auto _ : state) {
    DIVE_OBS_SPAN(span, obs, "codec.encode", obs::kTrackCodec);
    benchmark::DoNotOptimize(obs);
    if (++n == kObsBatch) {
      n = 0;
      ctx.tracer.clear();
    }
  }
}
BENCHMARK(BM_ObsSpanEnabledTracer);

void BM_ObsLedgerFrame(benchmark::State& state) {
  obs::FrameLedger ledger;
  std::uint64_t frame = 0;
  for (auto _ : state) {
    const auto ctx = ledger.begin_frame(0, frame, 0, 400000);
    ledger.stage(ctx, obs::FrameStage::kEncode, 0, 16000);
    ledger.stage(ctx, obs::FrameStage::kTransmit, 16000, 36000);
    ledger.stage(ctx, obs::FrameStage::kInference, 46000, 67000);
    ledger.outcome(ctx, obs::FrameOutcome::kCompleted, 75000);
    if (++frame % kObsBatch == 0) ledger.clear();
  }
}
BENCHMARK(BM_ObsLedgerFrame);

/// BENCH_micro_obs.json: the observability tax at a hot-path call site.
/// The headline claims: a null-context span site costs ~nothing (the
/// pointer test), a disabled tracer stays cheap (one atomic load), and
/// the enabled cost is the price of opting into a trace — plus the
/// ledger's full per-frame record cost (mint + 3 stages + outcome).
void emit_obs_record() {
  constexpr int kCalls = 200000;

  const auto span_sweep = [&](obs::ObsContext* obs) {
    for (int i = 0; i < kCalls; ++i) {
      DIVE_OBS_SPAN(span, obs, "codec.encode", obs::kTrackCodec);
      benchmark::DoNotOptimize(obs);
    }
  };

  const double null_ns = timed_ns(5, [&] { span_sweep(nullptr); }) / kCalls;

  obs::ObsContext disabled;
  const double disabled_ns =
      timed_ns(5, [&] { span_sweep(&disabled); }) / kCalls;

  obs::ObsContext enabled;
  enabled.tracer.set_enabled(true);
  const double enabled_ns = timed_ns(5, [&] {
                              enabled.tracer.clear();
                              span_sweep(&enabled);
                            }) /
                            kCalls;

  obs::FrameLedger ledger;
  const double ledger_ns = timed_ns(5, [&] {
                             ledger.clear();
                             for (int i = 0; i < kCalls; ++i) {
                               const auto ctx = ledger.begin_frame(
                                   0, static_cast<std::uint64_t>(i), 0,
                                   400000);
                               ledger.stage(ctx, obs::FrameStage::kEncode, 0,
                                            16000);
                               ledger.stage(ctx, obs::FrameStage::kTransmit,
                                            16000, 36000);
                               ledger.stage(ctx, obs::FrameStage::kInference,
                                            46000, 67000);
                               ledger.outcome(ctx,
                                              obs::FrameOutcome::kCompleted,
                                              75000);
                             }
                           }) /
                           kCalls;

  dive::bench::BenchRecorder rec("micro_obs");
  rec.add("span.null_context", null_ns, "ns/call");
  rec.add("span.disabled_tracer", disabled_ns, "ns/call");
  rec.add("span.enabled_tracer", enabled_ns, "ns/call");
  rec.add("ledger.frame_record", ledger_ns, "ns/call");
  rec.write();
}

}  // namespace

int main(int argc, char** argv) {
  emit_sad_record();
  emit_sse_record();
  emit_hme_record();
  emit_obs_record();
  if (const char* only = std::getenv("DIVE_BENCH_RECORDS_ONLY");
      only != nullptr && *only != '\0' && std::string_view(only) != "0") {
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
