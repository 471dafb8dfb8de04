// The edge takes motion and SKIP flags from the bitstream it decodes; the
// RoI sidecar no longer repeats them. This suite holds that the two
// sources agree on every frame the RoI lane's harnesses encode — a
// DiVE+RoI scheme driven as run_experiment drives it, and a RoI
// run_serve_scenario — at encoder threads 1 and 4 and with SKIP coding on
// and off (the serve harness always codes SKIP): DecodedFrame::motion and
// ::skip equal the encoder's EncodedFrame::motion and ::skip, and the
// gate plans and gated detections built from either source are
// identical, intra frames included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "codec/decoder.h"
#include "core/agent.h"
#include "data/dataset.h"
#include "edge/gate.h"
#include "edge/server.h"
#include "harness/experiment.h"
#include "harness/serve_scenario.h"
#include "roi/metadata.h"

namespace dive {
namespace {

void expect_same_detections(const edge::DetectionList& a,
                            const edge::DetectionList& b,
                            const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls) << where;
    EXPECT_EQ(a[i].box, b[i].box) << where;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << where;
  }
}

/// One encoded stream, decoded on the side and gated from both sources.
class SourceCheck {
 public:
  explicit SourceCheck(edge::RoiGateConfig gate)
      : gate_(gate), detector_(edge::ServerConfig{}.detector) {}

  void check(const codec::EncodedFrame& encoded, const std::string& where) {
    const codec::DecodedFrame decoded = decoder_.decode(encoded.data);
    ASSERT_EQ(decoded.type, encoded.type) << where;
    EXPECT_EQ(decoded.motion.mb_cols, encoded.motion.mb_cols) << where;
    EXPECT_EQ(decoded.motion.mb_rows, encoded.motion.mb_rows) << where;
    EXPECT_EQ(decoded.motion.mvs, encoded.motion.mvs) << where;
    EXPECT_EQ(decoded.skip, encoded.skip) << where;

    // The same pixels gated on the encoder's own field.
    codec::DecodedFrame coded = decoded;
    coded.motion = encoded.motion;
    coded.skip = encoded.skip;

    // A fixed central hull gives intra frames a signal to gate on.
    const int w = decoded.frame.width();
    const int h = decoded.frame.height();
    roi::RoiMetadata meta = roi::from_encoded(encoded, w, h);
    roi::add_region(meta, {{0.4 * w, 0.4 * h}, {0.6 * w, 0.4 * h},
                           {0.6 * w, 0.6 * h}, {0.4 * w, 0.6 * h}});
    const long index = frames_++;
    const edge::GatePlan plan = edge::plan_gate(gate_, &meta, decoded, index);
    const edge::GatePlan want = edge::plan_gate(gate_, &meta, coded, index);
    EXPECT_EQ(plan.gated, want.gated) << where;
    EXPECT_EQ(plan.tiles, want.tiles) << where;
    EXPECT_EQ(plan.coverage, want.coverage) << where;
    EXPECT_EQ(plan.pixel_fraction, want.pixel_fraction) << where;
    EXPECT_EQ(plan.work, want.work) << where;
    if (encoded.type == codec::FrameType::kIntra) ++intra_;

    if (!plan.gated) {
      held_ = detector_.detect(decoded.frame);
      return;
    }
    ++gated_;
    const edge::GatedDetections got =
        edge::infer_gated(gate_, decoded, plan, held_, detector_);
    const edge::GatedDetections ref =
        edge::infer_gated(gate_, coded, plan, held_, detector_);
    EXPECT_EQ(got.fresh, ref.fresh) << where;
    EXPECT_EQ(got.propagated, ref.propagated) << where;
    expect_same_detections(got.detections, ref.detections, where);
    held_ = got.detections;
  }

  [[nodiscard]] long frames() const { return frames_; }
  [[nodiscard]] long intra() const { return intra_; }
  [[nodiscard]] long gated() const { return gated_; }

 private:
  edge::RoiGateConfig gate_;
  edge::ChromaDetector detector_;
  codec::Decoder decoder_;
  edge::DetectionList held_;
  long frames_ = 0;
  long intra_ = 0;
  long gated_ = 0;
};

/// Sets DIVE_THREADS for the scope (encoders size their pools from it at
/// construction) and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* lanes) {
    if (const char* old = std::getenv("DIVE_THREADS")) saved_ = old;
    ::setenv("DIVE_THREADS", lanes, 1);
  }
  ~ScopedThreads() {
    if (saved_) ::setenv("DIVE_THREADS", saved_->c_str(), 1);
    else ::unsetenv("DIVE_THREADS");
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(DecodedMotion, MatchesEncoderInDiveRoiExperiment) {
  auto spec = data::nuscenes_like(1, 36);
  spec.width = 256;
  spec.height = 144;
  spec.focal_px = 1260.0 * 256.0 / 1600.0;
  const data::Clip clip = data::generate_clip(spec, 0);
  // Outages force intra resyncs mid-clip.
  harness::NetworkScenario net;
  net.first_outage_s = 0.5;
  net.outage_interval_s = 1.2;
  net.outage_duration_s = 0.6;

  for (const char* threads : {"1", "4"}) {
    long skipped_with[2] = {0, 0};  // by skip_blocks
    for (const bool skip_blocks : {true, false}) {
      const std::string where = std::string("threads=") + threads +
                                " skip_blocks=" + (skip_blocks ? "on" : "off");
      harness::SchemeOptions options;
      options.roi_metadata = true;
      options.skip_blocks = skip_blocks;
      const ScopedThreads scoped(threads);
      auto scheme = harness::make_scheme(harness::SchemeKind::kDive, options,
                                         net, clip,
                                         clip.frame_count() / clip.fps);
      const auto& agent = dynamic_cast<const core::DiveAgent&>(*scheme);
      SourceCheck check(edge::RoiGateConfig{});
      long& skipped = skipped_with[skip_blocks ? 1 : 0];
      for (const auto& rec : clip.frames) {
        (void)scheme->process_frame(rec.image,
                                    util::from_seconds(rec.timestamp));
        check.check(agent.last_encoded(),
                    where + " frame " + std::to_string(check.frames()));
        skipped += agent.last_encoded().skipped_mbs;
      }
      EXPECT_EQ(check.frames(), clip.frame_count()) << where;
      EXPECT_GT(check.intra(), 1) << where;
      EXPECT_GT(check.gated(), 0) << where;
    }
    // Natural SKIPs (zero residual at the predicted MV) occur either way;
    // skip_blocks adds the threshold-forced ones.
    EXPECT_GT(skipped_with[1], skipped_with[0]) << "threads=" << threads;
  }
}

TEST(DecodedMotion, MatchesEncoderInRoiServeScenario) {
  for (const int threads : {1, 4}) {
    harness::ServeScenarioOptions opt = harness::default_serve_options();
    opt.sessions = 3;
    opt.frames_per_session = 16;
    opt.roi_metadata = true;
    opt.encoder_threads = threads;
    std::map<std::uint32_t, SourceCheck> sessions;
    const std::string where = "threads=" + std::to_string(threads);
    const harness::ServeScenarioResult r = harness::run_serve_scenario(
        opt, [&](std::uint32_t s, const codec::EncodedFrame& encoded) {
          SourceCheck& check =
              sessions.try_emplace(s, opt.node.session.roi_gate).first->second;
          check.check(encoded, where + " session " + std::to_string(s) +
                                   " frame " + std::to_string(check.frames()));
        });
    ASSERT_EQ(sessions.size(), 3u) << where;
    long frames = 0;
    long gated = 0;
    for (const auto& [id, check] : sessions) {
      frames += check.frames();
      gated += check.gated();
      EXPECT_GE(check.intra(), 1) << where << " session " << id;
    }
    EXPECT_EQ(frames, r.frames) << where;
    EXPECT_GT(gated, 0) << where;
    EXPECT_GT(r.gated, 0) << where;
  }
}

}  // namespace
}  // namespace dive
