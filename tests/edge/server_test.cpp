#include "edge/server.h"

#include <gtest/gtest.h>

#include "codec/encoder.h"

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

TEST(EdgeServer, DecodeAndDetectSkipsLatencyModel) {
  codec::Encoder enc({.width = 128, .height = 64});
  EdgeServer server(ServerConfig{}, 12);
  const auto dets =
      server.decode_and_detect(enc.encode(frame_with_car(128, 64), 8).data);
  ASSERT_EQ(dets.size(), 1u);
  // decode_and_detect advances decoder state but not the jitter stream.
  EXPECT_EQ(server.frames_processed(), 0u);
  EXPECT_TRUE(server.has_reference());
}

TEST(EdgeServer, InferRawBypassesCodec) {
  EdgeServer server(ServerConfig{}, 4);
  const auto dets = server.infer_raw(frame_with_car(128, 64));
  ASSERT_EQ(dets.size(), 1u);
}

TEST(EdgeServer, ProcessAndSplitPathConsumeJitterIdentically) {
  // Regression for the serving/gating split: a layer that replaces
  // process() with decode_and_detect() + take_jitter() (serve::) or with
  // the RoI gate's decode + infer path must see the SAME jitter for the
  // k-th frame the server handles. Drive two same-seeded servers down
  // the two paths over a mixed I/P sequence and require identical
  // detections, identical jitter, and identical counter advance.
  codec::Encoder enc_a({.width = 128, .height = 64});
  codec::Encoder enc_b({.width = 128, .height = 64});
  const ServerConfig cfg;
  EdgeServer monolithic(cfg, 21);
  EdgeServer split(cfg, 21);
  const util::SimTime nominal =
      cfg.decode_latency + cfg.inference_latency + kDownlinkDelay;
  for (std::uint64_t k = 0; k < 6; ++k) {
    const auto frame = frame_with_car(128, 64);
    const auto bytes_a = enc_a.encode(frame, 8).data;
    const auto bytes_b = enc_b.encode(frame, 8).data;
    ASSERT_EQ(bytes_a, bytes_b);

    const auto pure = split.inference_jitter(k);  // pure: consumes nothing
    const auto result = monolithic.process(bytes_a, 0);
    const auto dets = split.decode_and_detect(bytes_b);
    const auto taken = split.take_jitter();

    EXPECT_EQ(taken, pure) << "frame " << k;
    EXPECT_EQ(result.result_at_agent, nominal + taken) << "frame " << k;
    ASSERT_EQ(dets.size(), result.detections.size()) << "frame " << k;
    for (std::size_t i = 0; i < dets.size(); ++i) {
      EXPECT_EQ(dets[i].cls, result.detections[i].cls);
      EXPECT_EQ(dets[i].box.x0, result.detections[i].box.x0);
      EXPECT_EQ(dets[i].confidence, result.detections[i].confidence);
    }
    EXPECT_EQ(split.frames_processed(), monolithic.frames_processed())
        << "frame " << k;
  }
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
