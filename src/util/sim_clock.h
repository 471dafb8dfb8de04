// Simulated time shared by the network, agent, and edge models.
//
// All DiVE timing experiments (response time, bandwidth estimation windows,
// link-outage timers) run against simulated time so that results are
// deterministic and independent of host load.
#pragma once

#include <cstdint>

namespace dive::util {

/// Simulation time in microseconds. Signed to make interval arithmetic safe.
using SimTime = std::int64_t;

constexpr SimTime kMicrosPerMilli = 1'000;
constexpr SimTime kMicrosPerSec = 1'000'000;

constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSec);
}
constexpr double to_millis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerMilli);
}
constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kMicrosPerSec));
}
constexpr SimTime from_millis(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMicrosPerMilli));
}

}  // namespace dive::util
