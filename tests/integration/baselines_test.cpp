// Baseline schemes (O3, EAAR, DDS, Uniform) driven over rendered clips.
#include <gtest/gtest.h>

#include "baselines/eaar.h"
#include "baselines/o3.h"
#include "data/dataset.h"
#include "edge/evaluator.h"
#include "harness/experiment.h"
#include "net/bandwidth.h"

namespace dive::baselines {
namespace {

data::Clip small_clip(int frames = 24) {
  auto spec = data::nuscenes_like(1, frames);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  return data::generate_clip(spec, 0);
}

std::unique_ptr<core::AnalyticsScheme> scheme_for(harness::SchemeKind kind,
                                                  const data::Clip& clip,
                                                  double mbps = 2.0) {
  harness::NetworkScenario net;
  net.mbps = mbps;
  return harness::make_scheme(kind, {}, net, clip,
                              clip.frame_count() / clip.fps);
}

double run_map(core::AnalyticsScheme& scheme, const data::Clip& clip) {
  edge::ChromaDetector gt;
  edge::ApEvaluator ev;
  for (const auto& rec : clip.frames) {
    const auto outcome =
        scheme.process_frame(rec.image, util::from_seconds(rec.timestamp));
    ev.add_frame(outcome.detections, gt.detect(rec.image));
  }
  return ev.map();
}

TEST(Baselines, O3ProducesUsableDetections) {
  const auto clip = small_clip(30);
  auto scheme = scheme_for(harness::SchemeKind::kO3, clip);
  EXPECT_NE(dynamic_cast<O3Scheme*>(scheme.get()), nullptr);
  EXPECT_GT(run_map(*scheme, clip), 0.05);
}

TEST(Baselines, EaarProducesUsableDetections) {
  const auto clip = small_clip(30);
  auto scheme = scheme_for(harness::SchemeKind::kEaar, clip);
  EXPECT_NE(dynamic_cast<EaarScheme*>(scheme.get()), nullptr);
  EXPECT_GT(run_map(*scheme, clip), 0.05);
}

/// Response time of EAAR's first frame (always a key frame) against an
/// edge server with the given decode/inference latencies. Every call
/// seeds the server alike, so the first frame's jitter is the same.
util::SimTime eaar_first_response(const data::Clip& clip,
                                  util::SimTime decode_latency,
                                  util::SimTime inference_latency) {
  edge::ServerConfig server_cfg;
  server_cfg.decode_latency = decode_latency;
  server_cfg.inference_latency = inference_latency;
  auto uplink = std::make_shared<net::Uplink>(
      std::make_shared<net::ConstantBandwidth>(net::mbps_to_bytes_per_sec(2.0)),
      net::UplinkConfig{});
  EaarScheme eaar(clip.fps,
                  codec::EncoderConfig{.width = clip.camera.width(),
                                       .height = clip.camera.height(),
                                       .threads = 1},
                  uplink, std::make_shared<edge::EdgeServer>(server_cfg, 3));
  const auto& rec = clip.frames.front();
  const auto outcome =
      eaar.process_frame(rec.image, util::from_seconds(rec.timestamp));
  EXPECT_TRUE(outcome.offloaded);
  return outcome.response_time;
}

TEST(Baselines, EaarPipeliningSavingFollowsServerLatencies) {
  // Pipelined streaming hides the server's whole decode latency and half
  // its inference latency: a slower decoder leaves the response time
  // unchanged, and slower inference shows up at half its cost.
  const auto clip = small_clip(2);
  const util::SimTime base = eaar_first_response(
      clip, util::from_millis(3.0), util::from_millis(18.0));
  EXPECT_EQ(eaar_first_response(clip, util::from_millis(30.0),
                                util::from_millis(18.0)),
            base);
  EXPECT_EQ(eaar_first_response(clip, util::from_millis(3.0),
                                util::from_millis(60.0)),
            base + util::from_millis(21.0));
}

TEST(Baselines, DdsTwoPassCloseToUpperBound) {
  const auto clip = small_clip(30);
  auto dds = scheme_for(harness::SchemeKind::kDds, clip);
  auto uniform = scheme_for(harness::SchemeKind::kUniform, clip);
  const double dds_map = run_map(*dds, clip);
  const double uni_map = run_map(*uniform, clip);
  EXPECT_GT(dds_map, 0.3);
  EXPECT_LE(dds_map, uni_map + 0.1);
}

TEST(Baselines, KeyframeSchemesCheaperThanFullStreaming) {
  const auto clip = small_clip(30);
  auto eaar = scheme_for(harness::SchemeKind::kEaar, clip);
  auto uniform = scheme_for(harness::SchemeKind::kUniform, clip);
  std::size_t eaar_bytes = 0, uniform_bytes = 0;
  for (const auto& rec : clip.frames) {
    eaar_bytes += eaar->process_frame(rec.image,
                                      util::from_seconds(rec.timestamp))
                      .bytes_sent;
    uniform_bytes += uniform->process_frame(rec.image,
                                            util::from_seconds(rec.timestamp))
                         .bytes_sent;
  }
  EXPECT_LT(eaar_bytes, uniform_bytes / 2);
}

TEST(Baselines, KeyframeResponseBimodal) {
  // Tracked frames answer in a few ms, keyframes take a round trip.
  const auto clip = small_clip(24);
  auto scheme = scheme_for(harness::SchemeKind::kO3, clip);
  int fast = 0, slow = 0;
  for (const auto& rec : clip.frames) {
    const auto outcome =
        scheme->process_frame(rec.image, util::from_seconds(rec.timestamp));
    if (util::to_millis(outcome.response_time) < 20.0) ++fast;
    else ++slow;
  }
  EXPECT_GT(fast, 10);
  EXPECT_GT(slow, 2);
}

TEST(Baselines, DdsSkipsWhenBacklogged) {
  // At a crawling uplink DDS must skip frames rather than queue forever.
  const auto clip = small_clip(24);
  auto scheme = scheme_for(harness::SchemeKind::kDds, clip, 0.4);
  int skipped = 0;
  for (const auto& rec : clip.frames) {
    const auto outcome =
        scheme->process_frame(rec.image, util::from_seconds(rec.timestamp));
    if (outcome.bytes_sent == 0) ++skipped;
  }
  EXPECT_GT(skipped, 3);
}

TEST(Baselines, DiveOutperformsKeyframeSchemes) {
  // The paper's headline ordering at moderate bandwidth.
  const auto clip = small_clip(36);
  auto dive = scheme_for(harness::SchemeKind::kDive, clip);
  auto o3 = scheme_for(harness::SchemeKind::kO3, clip);
  const double dive_map = run_map(*dive, clip);
  const double o3_map = run_map(*o3, clip);
  EXPECT_GT(dive_map, o3_map);
}

}  // namespace
}  // namespace dive::baselines
