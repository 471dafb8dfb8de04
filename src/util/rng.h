// Deterministic random number generation.
//
// Every stochastic component in the reproduction (scene generation,
// bandwidth traces, detector jitter) draws from a seeded Rng so that tests
// and benchmark tables are bit-reproducible across runs.
#pragma once

#include <cstdint>
#include <random>

namespace dive::util {

/// Seeded pseudo-random source with convenience distributions.
///
/// Wraps a mersenne twister; cheap to copy is NOT a goal — pass by
/// reference. Use `fork()` to derive an independent stream for a
/// sub-component so that adding draws in one component does not perturb
/// another.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  /// Gaussian with mean/stddev.
  double gaussian(double mean, double stddev);
  /// Bernoulli trial.
  bool chance(double p);

  /// Derive an independent generator; distinct `stream` values give
  /// distinct sequences for the same parent seed.
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace dive::util
