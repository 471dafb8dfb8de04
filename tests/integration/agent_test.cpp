// End-to-end DiVE agent behaviour over rendered clips and a simulated
// uplink.
#include <gtest/gtest.h>

#include "core/agent.h"
#include "data/dataset.h"
#include "edge/evaluator.h"
#include "harness/experiment.h"
#include "obs/obs.h"

namespace dive::core {
namespace {

data::Clip small_clip(int frames = 24) {
  auto spec = data::nuscenes_like(1, frames);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  return data::generate_clip(spec, 0);
}

std::unique_ptr<DiveAgent> make_agent(
    const data::Clip& clip, double mbps,
    std::shared_ptr<edge::EdgeServer>* server_out = nullptr,
    DiveConfig cfg = {}) {
  auto trace = std::make_shared<net::ConstantBandwidth>(
      net::mbps_to_bytes_per_sec(mbps));
  auto uplink = std::make_shared<net::Uplink>(trace, net::UplinkConfig{});
  auto server = std::make_shared<edge::EdgeServer>(edge::ServerConfig{}, 1);
  if (server_out != nullptr) *server_out = server;
  cfg.fps = clip.fps;
  codec::EncoderConfig enc;
  enc.width = clip.camera.width();
  enc.height = clip.camera.height();
  return std::make_unique<DiveAgent>(cfg, enc, clip.camera, uplink, server);
}

TEST(DiveAgent, ProcessesClipAndDetects) {
  const auto clip = small_clip();
  auto agent = make_agent(clip, 2.0);
  edge::ChromaDetector gt_detector;
  edge::ApEvaluator evaluator;
  for (const auto& rec : clip.frames) {
    const auto outcome = agent->process_frame(
        rec.image, util::from_seconds(rec.timestamp));
    evaluator.add_frame(outcome.detections, gt_detector.detect(rec.image));
    EXPECT_TRUE(outcome.offloaded);
    EXPECT_GT(outcome.bytes_sent, 0u);
    EXPECT_GT(outcome.response_time, 0);
  }
  EXPECT_GT(evaluator.map(), 0.5);
}

TEST(DiveAgent, RespectsBandwidthBudget) {
  const auto clip = small_clip();
  const double mbps = 1.0;
  auto agent = make_agent(clip, mbps);
  std::size_t total_bytes = 0;
  for (const auto& rec : clip.frames) {
    total_bytes += agent->process_frame(rec.image,
                                        util::from_seconds(rec.timestamp))
                       .bytes_sent;
  }
  const double duration = clip.frame_count() / clip.fps;
  const double capacity = net::mbps_to_bytes_per_sec(mbps) * duration;
  EXPECT_LT(static_cast<double>(total_bytes), capacity * 1.15);
}

TEST(DiveAgent, ResponseTimeWithinRealTimeBounds) {
  const auto clip = small_clip();
  auto agent = make_agent(clip, 2.0);
  util::RunningStats response_ms;
  for (const auto& rec : clip.frames) {
    const auto outcome = agent->process_frame(
        rec.image, util::from_seconds(rec.timestamp));
    response_ms.add(util::to_millis(outcome.response_time));
  }
  // At 2 Mbps the paper reports <= ~134-156 ms; our reduced frames are
  // cheaper, so the mean must land comfortably under 200 ms.
  EXPECT_LT(response_ms.mean(), 200.0);
  EXPECT_GT(response_ms.mean(), 10.0);
}

TEST(DiveAgent, OutageTriggersOfflineTracking) {
  const auto clip = small_clip(30);
  const double duration = clip.frame_count() / clip.fps;
  auto base = std::make_shared<net::ConstantBandwidth>(
      net::mbps_to_bytes_per_sec(2.0));
  auto trace = std::make_shared<net::OutageBandwidth>(
      base, net::OutageBandwidth::periodic(util::from_seconds(0.8),
                                           util::from_seconds(10),
                                           util::from_seconds(1.0),
                                           util::from_seconds(duration)));
  net::UplinkConfig ucfg;
  ucfg.head_timeout = util::from_millis(250);
  auto uplink = std::make_shared<net::Uplink>(trace, ucfg);
  auto server = std::make_shared<edge::EdgeServer>(edge::ServerConfig{}, 2);
  DiveConfig cfg;
  cfg.fps = clip.fps;
  codec::EncoderConfig enc;
  enc.width = clip.camera.width();
  enc.height = clip.camera.height();
  DiveAgent agent(cfg, enc, clip.camera, uplink, server);

  int offloaded = 0, tracked = 0;
  for (const auto& rec : clip.frames) {
    const auto outcome =
        agent.process_frame(rec.image, util::from_seconds(rec.timestamp));
    (outcome.offloaded ? offloaded : tracked)++;
  }
  EXPECT_GT(offloaded, 5);
  EXPECT_GT(tracked, 3);  // frames during the outage fell back to MOT
}

TEST(DiveAgent, EdgeMetricsCountEveryOffloadInBothLanes) {
  // With or without the RoI sidecar, every offloaded frame is one
  // synchronous inference and records the same edge metric set.
  const auto clip = small_clip(12);
  for (const bool roi_lane : {false, true}) {
    obs::ObsContext obs;
    DiveConfig cfg;
    cfg.roi_metadata = roi_lane;
    cfg.obs = &obs;
    auto agent = make_agent(clip, 2.0, nullptr, cfg);
    for (const auto& rec : clip.frames)
      agent->process_frame(rec.image, util::from_seconds(rec.timestamp));
    const auto count = [&obs](const char* name) {
      return obs.metrics.counter(name).value();
    };
    const std::int64_t offloaded = count("agent.offloaded");
    EXPECT_GT(offloaded, 0) << "roi lane " << roi_lane;
    EXPECT_EQ(count("edge.frames"), offloaded) << "roi lane " << roi_lane;
    EXPECT_EQ(obs.metrics.distribution("edge.service_ms", "ms")
                  .snapshot()
                  .count(),
              static_cast<std::size_t>(offloaded))
        << "roi lane " << roi_lane;
  }
}

TEST(DiveAgent, ForegroundStateExposed) {
  const auto clip = small_clip();
  auto agent = make_agent(clip, 2.0);
  for (int i = 0; i < 6; ++i) {
    agent->process_frame(clip.frames[static_cast<std::size_t>(i)].image,
                         util::from_seconds(clip.frames[static_cast<std::size_t>(i)].timestamp));
  }
  EXPECT_GT(agent->last_preprocess().eta, 0.1);
  EXPECT_TRUE(agent->last_preprocess().agent_moving);
  EXPECT_GE(agent->last_background_delta(), 0);
}

TEST(DiveAgent, FixedDeltaConfigHonored) {
  const auto clip = small_clip();
  DiveConfig cfg;
  cfg.qp.fixed_delta = 25;
  auto agent = make_agent(clip, 2.0, nullptr, cfg);
  for (int i = 0; i < 4; ++i)
    agent->process_frame(clip.frames[static_cast<std::size_t>(i)].image,
                         util::from_seconds(clip.frames[static_cast<std::size_t>(i)].timestamp));
  EXPECT_EQ(agent->last_background_delta(), 25);
}

}  // namespace
}  // namespace dive::core
