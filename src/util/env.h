// Strict parsing of positive integer overrides from the environment
// (thread counts, bench scale knobs).
#pragma once

namespace dive::util {

/// Environment variable `name` as a positive int. The whole value must
/// be decimal digits (no sign, whitespace or suffix) within 1..INT_MAX;
/// `fallback` when it is unset or anything else.
[[nodiscard]] int env_int(const char* name, int fallback);

}  // namespace dive::util
