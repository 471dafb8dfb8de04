#include "edge/server.h"

#include <gtest/gtest.h>

#include <cmath>

#include "codec/encoder.h"
#include "roi/metadata.h"

namespace dive::edge {
namespace {

video::Frame frame_with_car(int w, int h) {
  video::Frame f(w, h);
  for (int y = 10; y < 25; ++y)
    for (int x = 10; x < 40; ++x) {
      f.u.at(x, y) = 168;
      f.v.at(x, y) = 120;
    }
  return f;
}

TEST(EdgeServer, DecodesAndDetects) {
  codec::Encoder enc({.width = 128, .height = 64});
  const auto frame = frame_with_car(128, 64);
  const auto encoded = enc.encode(frame, 8);

  EdgeServer server(ServerConfig{}, 1);
  const auto result = server.process(encoded.data, util::from_seconds(1));
  ASSERT_EQ(result.detections.size(), 1u);
  EXPECT_EQ(result.detections[0].cls, video::ObjectClass::kCar);
}

TEST(EdgeServer, ResultTimeIncludesLatencies) {
  codec::Encoder enc({.width = 64, .height = 32});
  const auto encoded = enc.encode(video::Frame(64, 32), 20);
  ServerConfig cfg;
  cfg.decode_latency = util::from_millis(5);
  cfg.inference_latency = util::from_millis(20);
  EdgeServer server(cfg, 2);
  const util::SimTime jitter = server.inference_jitter(0);
  const auto r = server.process(encoded.data, util::from_seconds(2));
  static_assert(kDownlinkDelay == util::from_millis(8));
  EXPECT_EQ(r.result_at_agent,
            util::from_seconds(2) + util::from_millis(33) + jitter);
}

TEST(EdgeServer, JitterBoundsResultTime) {
  codec::Encoder enc({.width = 64, .height = 32});
  const ServerConfig cfg;
  EdgeServer server(cfg, 3);
  const util::SimTime nominal =
      cfg.decode_latency + cfg.inference_latency + kDownlinkDelay;
  static_assert(kInferenceJitterMs == 2.0);
  for (int i = 0; i < 10; ++i) {
    const auto encoded = enc.encode(video::Frame(64, 32), 20);
    const auto r = server.process(encoded.data, 0);
    EXPECT_GE(r.result_at_agent, nominal - util::from_millis(2));
    EXPECT_LE(r.result_at_agent, nominal + util::from_millis(2));
  }
}

TEST(EdgeServer, JitterIsPerFrameStreamIndependentOfCallOrder) {
  // Determinism contract: inference_jitter(k) is a pure function of
  // (seed, k) — two servers with the same seed agree frame-by-frame no
  // matter how many frames either has processed, and querying out of
  // order changes nothing.
  const ServerConfig cfg;
  EdgeServer a(cfg, 7);
  EdgeServer b(cfg, 7);
  for (int k = 9; k >= 0; --k)
    EXPECT_EQ(a.inference_jitter(k), b.inference_jitter(k)) << "frame " << k;
  // Different seeds draw different streams (at least one frame differs).
  EdgeServer c(cfg, 8);
  bool any_diff = false;
  for (int k = 0; k < 10; ++k)
    any_diff = any_diff || a.inference_jitter(k) != c.inference_jitter(k);
  EXPECT_TRUE(any_diff);
}

TEST(EdgeServer, ProcessUsesPerFrameJitterStream) {
  codec::Encoder enc({.width = 64, .height = 32});
  const ServerConfig cfg;
  EdgeServer server(cfg, 11);
  const util::SimTime nominal =
      cfg.decode_latency + cfg.inference_latency + kDownlinkDelay;
  for (std::uint64_t k = 0; k < 5; ++k) {
    const auto jitter = server.inference_jitter(k);
    EXPECT_EQ(server.frames_processed(), k);
    const auto r = server.process(enc.encode(video::Frame(64, 32), 20).data, 0);
    EXPECT_EQ(r.result_at_agent, nominal + jitter) << "frame " << k;
  }
}

TEST(EdgeServer, InferRawBypassesCodec) {
  EdgeServer server(ServerConfig{}, 4);
  const auto dets = server.infer_raw(frame_with_car(128, 64));
  ASSERT_EQ(dets.size(), 1u);
}

TEST(EdgeServer, DecodeAndDetectSkipsLatencyModel) {
  // plan() then run() with no sidecar is the serving layer's bare
  // decode + detect: it advances decoder state but not the jitter stream.
  codec::Encoder enc({.width = 128, .height = 64});
  EdgeServer server(ServerConfig{}, 12);
  const GatedDetections ran = server.run(
      server.plan(enc.encode(frame_with_car(128, 64), 8).data, nullptr));
  ASSERT_EQ(ran.detections.size(), 1u);
  EXPECT_FALSE(ran.gated);
  EXPECT_EQ(server.frames_processed(), 0u);
  EXPECT_TRUE(server.has_reference());
}

TEST(EdgeServer, ProcessAndSplitPathConsumeJitterIdentically) {
  // The serving layer splits process() into plan() (decode + gate plan)
  // at admission and run() at dispatch, and pairs the k-th frame with inference_jitter(k). Drive
  // two same-seeded servers down the two paths over a mixed I/P sequence
  // of full-frame and gated frames: plans and detections must agree,
  // process() must charge its one latency formula on that plan, and run()
  // must leave the jitter stream alone.
  constexpr int kW = 128;
  constexpr int kH = 64;
  codec::Encoder enc_a({.width = kW, .height = kH});
  codec::Encoder enc_b({.width = kW, .height = kH});
  const ServerConfig cfg;
  const RoiGateConfig gate{.tile_px = 16, .halo_tiles = 0, .scan_stripes = 0};
  EdgeServer whole(cfg, 21, gate);
  EdgeServer split(cfg, 21, gate);
  bool saw_gated = false;
  bool saw_full = false;
  for (std::uint64_t k = 0; k < 6; ++k) {
    const auto frame = frame_with_car(kW, kH);
    const codec::EncodedFrame encoded = enc_a.encode(frame, 8);
    const auto bytes_b = enc_b.encode(frame, 8).data;
    ASSERT_EQ(encoded.data, bytes_b);
    // Odd frames carry a sidecar with the car's hull, even frames none.
    roi::RoiMetadata meta = roi::from_encoded(encoded, kW, kH);
    roi::add_region(meta, {{20, 20}, {80, 20}, {80, 50}, {20, 50}});
    const roi::RoiMetadata* m = k % 2 == 1 ? &meta : nullptr;

    const util::SimTime arrival = util::from_millis(40.0 * static_cast<double>(k));
    GatePlan used;
    const InferenceResult result = whole.process(encoded.data, arrival, m, &used);
    const PlannedFrame planned = split.plan(bytes_b, m);
    const GatedDetections ran = split.run(planned);

    EXPECT_EQ(planned.plan.gated, used.gated) << "frame " << k;
    EXPECT_EQ(planned.plan.tiles, used.tiles) << "frame " << k;
    EXPECT_EQ(planned.plan.work, used.work) << "frame " << k;
    EXPECT_EQ(ran.gated, used.gated) << "frame " << k;
    const auto inference = static_cast<util::SimTime>(std::llround(
        static_cast<double>(cfg.inference_latency) * planned.plan.work));
    EXPECT_EQ(result.result_at_agent,
              arrival + cfg.decode_latency + inference +
                  split.inference_jitter(k) + kDownlinkDelay)
        << "frame " << k;
    ASSERT_EQ(ran.detections.size(), result.detections.size()) << "frame " << k;
    for (std::size_t i = 0; i < ran.detections.size(); ++i) {
      EXPECT_EQ(ran.detections[i].cls, result.detections[i].cls);
      EXPECT_EQ(ran.detections[i].box.x0, result.detections[i].box.x0);
      EXPECT_EQ(ran.detections[i].confidence,
                result.detections[i].confidence);
    }
    EXPECT_EQ(whole.frames_processed(), k + 1);
    EXPECT_EQ(split.frames_processed(), 0u);
    (used.gated ? saw_gated : saw_full) = true;
  }
  EXPECT_TRUE(saw_gated);
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(split.has_reference());
}

TEST(EdgeServer, StatefulAcrossInterFrames) {
  codec::Encoder enc({.width = 64, .height = 32});
  EdgeServer server(ServerConfig{}, 5);
  server.process(enc.encode(video::Frame(64, 32), 24).data, 0);
  EXPECT_TRUE(server.has_reference());
  // A subsequent inter frame decodes fine against the server's state.
  const auto inter = enc.encode(video::Frame(64, 32), 24);
  EXPECT_NO_THROW(server.process(inter.data, util::from_millis(100)));
}

}  // namespace
}  // namespace dive::edge
