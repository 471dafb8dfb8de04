#include "util/rng.h"

#include <gtest/gtest.h>

namespace dive::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
    const int n = rng.uniform_int(5, 9);
    EXPECT_GE(n, 5);
    EXPECT_LE(n, 9);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(42);
  Rng f0 = parent.fork(0);
  Rng f1 = parent.fork(1);
  // Same stream id twice gives identical sequences.
  Rng f0b = parent.fork(0);
  EXPECT_DOUBLE_EQ(f0.uniform(0, 1), f0b.uniform(0, 1));
  // Distinct streams decorrelate.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (f0.uniform_int(0, 1 << 30) == f1.uniform_int(0, 1 << 30)) ++same;
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace dive::util
