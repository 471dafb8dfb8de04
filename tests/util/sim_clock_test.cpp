#include "util/sim_clock.h"

#include <gtest/gtest.h>

namespace dive::util {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_EQ(from_millis(2.0), 2'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_millis(1'500), 1.5);
}

}  // namespace
}  // namespace dive::util
