#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dive::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10 + i;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleSet, QuantilesInterpolate) {
  SampleSet s;
  for (double x : {4.0, 1.0, 3.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 2.0);
}

TEST(SampleSet, QuantileOfEmptyThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
}

TEST(SampleSet, CdfMonotone) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.cdf_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(50.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(100.0), 1.0);
  double prev = -1.0;
  for (const auto& [x, p] : s.cdf_curve(11)) {
    EXPECT_GE(p, prev) << "CDF must be monotone at x=" << x;
    prev = p;
  }
}

TEST(SampleSet, AddAfterQueryStillCorrect) {
  SampleSet s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.5);
  s.add(100.0);  // resort required internally
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(SampleSet, MergeMatchesSequential) {
  SampleSet a, b, all;
  for (double x : {5.0, 1.0, 9.0}) {
    a.add(x);
    all.add(x);
  }
  for (double x : {3.0, 7.0}) {
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.median(), all.median());
  EXPECT_DOUBLE_EQ(a.quantile(0.9), all.quantile(0.9));
  // Merging after a query (sorted state) still re-sorts correctly.
  SampleSet c;
  c.add(0.5);
  a.merge(c);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 0.5);
  // Merging an empty set is a no-op.
  a.merge(SampleSet{});
  EXPECT_EQ(a.count(), 6u);
}

TEST(SampleSet, SortSamplesEnablesConstQueries) {
  SampleSet s;
  for (double x : {4.0, 2.0, 8.0, 6.0}) s.add(x);
  // The documented contract: quantile()/cdf_at()/median() on a const ref
  // are only thread-safe after an explicit sort_samples() (the lazy sort
  // mutates mutable state on first query). sort_samples() must leave the
  // set queryable and idempotent.
  s.sort_samples();
  const SampleSet& view = s;
  EXPECT_DOUBLE_EQ(view.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(view.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(view.median(), 5.0);
  s.sort_samples();  // already sorted: no-op
  EXPECT_DOUBLE_EQ(view.median(), 5.0);
  // A later add invalidates sorted state; sort_samples restores it.
  s.add(0.0);
  s.sort_samples();
  EXPECT_DOUBLE_EQ(view.quantile(0.0), 0.0);
}

}  // namespace
}  // namespace dive::util
