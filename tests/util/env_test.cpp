#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace dive::util {
namespace {

TEST(EnvInt, ParsesAndFallsBack) {
  for (const auto& [text, want] : {std::pair{"42", 42}, {"007", 7},
                                   {"2147483647", 2147483647}}) {
    ::setenv("DIVE_TEST_ENV_INT", text, 1);
    EXPECT_EQ(env_int("DIVE_TEST_ENV_INT", 7), want) << text;
  }
  ::unsetenv("DIVE_TEST_ENV_INT");
  EXPECT_EQ(env_int("DIVE_TEST_ENV_INT", 7), 7);
  // Anything but a whole decimal in 1..INT_MAX falls back: overflow past
  // int (which a long parse followed by a cast would wrap negative), a
  // numeric prefix with a suffix, a sign, whitespace, and the empty
  // string.
  for (const char* bad : {"garbage", "3000000000", "2147483648", "12abc",
                          "-3", "+3", "0", " 3", "3 ", ""}) {
    ::setenv("DIVE_TEST_ENV_INT", bad, 1);
    EXPECT_EQ(env_int("DIVE_TEST_ENV_INT", 7), 7) << '"' << bad << '"';
  }
  ::unsetenv("DIVE_TEST_ENV_INT");
}

}  // namespace
}  // namespace dive::util
