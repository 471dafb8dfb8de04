#include "util/rng.h"

namespace dive::util {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::bernoulli_distribution d(p);
  return d(engine_);
}

Rng Rng::fork(std::uint64_t stream) const {
  // SplitMix-style mixing of (seed, stream) so that forked streams are
  // decorrelated from the parent and from each other.
  std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return Rng(z);
}

}  // namespace dive::util
