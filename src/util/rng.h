// Deterministic RNG for simulations and workload generation.
//
// All stochastic behavior in the simulator (TSPU failure injection, topology
// sampling, workload generation) flows through Rng so that every experiment
// is exactly reproducible from a seed.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace tspu::util {

/// xoshiro256** seeded via splitmix64. Small, fast, and good enough for
/// Bernoulli failure draws and uniform sampling; not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = kDefaultSeed) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into four lanes.
    std::uint64_t x = seed;
    for (auto& lane : s_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      lane = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    auto rotl = [](std::uint64_t v, int k) {
      return (v << k) | (v >> (64 - k));
    };
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) throw std::invalid_argument("Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ull - (~0ull % bound);
    std::uint64_t v;
    do {
      v = next();
    } while (v >= limit);
    return v % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::range lo>hi");
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Uniformly picks one element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick on empty span");
    return items[below(items.size())];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

  /// Independent child stream; lets parallel components draw without
  /// perturbing each other's sequences.
  Rng fork() { return Rng(next() ^ 0xa5a5a5a5deadbeefull); }

 private:
  static constexpr std::uint64_t kDefaultSeed = 0x75b4c0ffee2022ull;
  std::uint64_t s_[4] = {};
};

}  // namespace tspu::util
