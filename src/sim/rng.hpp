// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component (workload generators, load balancers, loss
// models) draws from its own `Rng` seeded from the experiment seed plus a
// component-specific stream id, so adding a component never perturbs the
// random sequence seen by the others.
//
// An `Rng` holds only its seed until the first draw, which builds the
// `std::mt19937_64` (2.5 KB of state) out of line. Most streams are never
// drawn from — a flow's load balancer picks a random path only when it
// re-routes after a NACK or timeout, a switch queue only when RED marks —
// so a run that spawns a million flows builds engines for the few that
// need one. Seeding is unchanged, so every stream is bit-identical to an
// eagerly built engine. Copying an Rng that has drawn copies its state.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

namespace uno {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : seed_(seed) {}
  Rng(const Rng& o)
      : seed_(o.seed_),
        engine_(o.engine_ ? std::make_unique<std::mt19937_64>(*o.engine_) : nullptr) {}
  Rng& operator=(const Rng& o) {
    if (this != &o) *this = Rng(o);
    return *this;
  }
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  /// Derive an independent stream: mixes `stream` into the seed with
  /// splitmix64 so nearby ids produce uncorrelated engines.
  static Rng stream(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine());
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine()); }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine());
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// The engine, built from the seed on first use.
  std::mt19937_64& engine() {
    if (!engine_) build();
    return *engine_;
  }

 private:
  void build();

  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> engine_;  // null until the first draw
};

}  // namespace uno
