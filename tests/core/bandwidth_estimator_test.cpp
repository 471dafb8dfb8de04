#include "core/bandwidth_estimator.h"

#include <gtest/gtest.h>

namespace dive::core {
namespace {

using util::from_millis;
using util::from_seconds;

TEST(BandwidthEstimator, PriorBeforeAnyAck) {
  const BandwidthEstimator est;
  EXPECT_DOUBLE_EQ(est.estimate(from_seconds(1)), 125'000.0);
  EXPECT_DOUBLE_EQ(est.estimate(from_seconds(1)),
                   BandwidthEstimator::kPriorBytesPerSec);
}

TEST(BandwidthEstimator, SingleBurstGoodput) {
  BandwidthEstimator est;
  // 1000 bytes over 0.1 s = 10 kB/s.
  est.add_transmission(1000.0, from_seconds(1), from_millis(1100));
  EXPECT_NEAR(est.estimate(from_millis(1100)), 10'000.0, 1e-6);
}

TEST(BandwidthEstimator, DurationWeightedAverage) {
  BandwidthEstimator est;
  // 0.3 s at 10 kB/s and 0.1 s at 2 kB/s.
  est.add_transmission(3000.0, 0, from_millis(300));
  est.add_transmission(200.0, from_millis(300), from_millis(400));
  const double expected = (3000.0 + 200.0) / 0.4;
  EXPECT_NEAR(est.estimate(from_millis(400)), expected, 1e-6);
}

TEST(BandwidthEstimator, WindowForgetsOldBursts) {
  static_assert(BandwidthEstimator::kWindow == from_seconds(2));
  BandwidthEstimator est;
  est.add_transmission(10'000.0, 0, from_millis(500));  // 20 kB/s, old
  est.add_transmission(1000.0, from_seconds(5), from_millis(5500));  // 2 kB/s
  EXPECT_NEAR(est.estimate(from_millis(5500)), 2000.0, 1e-6);
}

TEST(BandwidthEstimator, SafetyFactorApplied) {
  BandwidthEstimator est;
  est.add_transmission(1000.0, 0, from_millis(100));  // 10 kB/s
  EXPECT_NEAR(est.target_bytes_per_sec(from_millis(100)), 9000.0, 1e-6);
  EXPECT_DOUBLE_EQ(est.target_bytes_per_sec(from_millis(100)),
                   est.estimate(from_millis(100)) * BandwidthEstimator::kSafety);
}

TEST(BandwidthEstimator, IgnoresDegenerateSamples) {
  BandwidthEstimator est;
  est.add_transmission(0.0, 0, from_millis(100));
  est.add_transmission(100.0, from_millis(100), from_millis(100));
  est.add_transmission(100.0, from_millis(200), from_millis(150));
  // Still on the prior.
  EXPECT_DOUBLE_EQ(est.estimate(from_millis(200)),
                   BandwidthEstimator::kPriorBytesPerSec);
}

TEST(BandwidthEstimator, TracksRateChange) {
  BandwidthEstimator est;
  // Old regime: 10 kB/s bursts.
  for (int i = 0; i < 5; ++i)
    est.add_transmission(1000.0, from_millis(i * 200),
                         from_millis(i * 200 + 100));
  // New regime: 2 kB/s bursts, pushing the window past the old ones.
  for (int i = 0; i < 10; ++i)
    est.add_transmission(200.0, from_millis(2000 + i * 200),
                         from_millis(2000 + i * 200 + 100));
  EXPECT_NEAR(est.estimate(from_millis(4100)), 2000.0, 1.0);
}

TEST(BandwidthEstimator, ProratesStraddlingSample) {
  // Regression: a long transmission straddling the window edge used to
  // contribute its full duration and bytes, dragging in goodput from
  // before the window. Only the overlap with [now - window, now] counts.
  static_assert(BandwidthEstimator::kWindow == from_seconds(2));
  BandwidthEstimator est;
  // ~9523.8 B/s for 10.5 s — only its last 0.1 s is inside the window.
  est.add_transmission(100'000.0, 0, from_millis(10'500));
  // 500 B/s for 0.1 s, fully inside the window.
  est.add_transmission(50.0, from_millis(12'300), from_millis(12'400));
  const double fast_rate = 100'000.0 / 10.5;
  const double expected = (fast_rate * 0.1 + 500.0 * 0.1) / 0.2;
  EXPECT_NEAR(est.estimate(from_millis(12'400)), expected, 1e-6);
}

TEST(BandwidthEstimator, ResetRestoresPrior) {
  BandwidthEstimator est;
  est.add_transmission(1000.0, 0, from_millis(100));
  est.reset();
  EXPECT_DOUBLE_EQ(est.estimate(from_millis(100)),
                   BandwidthEstimator::kPriorBytesPerSec);
}

}  // namespace
}  // namespace dive::core
