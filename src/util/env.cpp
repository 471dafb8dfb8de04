#include "util/env.h"

#include <charconv>
#include <cstdlib>
#include <string_view>

namespace dive::util {

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string_view text(raw);
  // from_chars accepts a leading '-'; requiring a digit first rules it out.
  if (text.empty() || text.front() < '0' || text.front() > '9')
    return fallback;
  int value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last || value < 1) return fallback;
  return value;
}

}  // namespace dive::util
