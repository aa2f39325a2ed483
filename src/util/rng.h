#ifndef SAPHYRA_UTIL_RNG_H_
#define SAPHYRA_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saphyra {

/// \brief Fast, seedable pseudo-random number generator (xoshiro256**).
///
/// Every randomized component in the library takes an explicit seed so that
/// experiments are reproducible. The generator satisfies the C++
/// UniformRandomBitGenerator concept and can be used with <random>
/// distributions, but also exposes the handful of primitives the samplers
/// need (uniform index, uniform double, weighted index) without the libstdc++
/// distribution overhead.
class Rng {
 public:
  using result_type = uint64_t;

  /// \brief Construct from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// \brief Next 64 random bits.
  uint64_t Next();
  uint64_t operator()() { return Next(); }

  /// \brief Uniform integer in [0, bound). Requires bound > 0.
  ///
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t UniformInt(uint64_t bound);

  /// \brief Uniform double in [0, 1).
  double UniformDouble();

  /// \brief Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// \brief Index drawn proportionally to the non-negative weights.
  ///
  /// Linear scan; suitable for small weight vectors. Requires a positive
  /// total weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// \brief Derive an independent child generator (for per-thread streams).
  Rng Split();

 private:
  uint64_t s_[4];
};

/// \brief Work arrays of BuildAlias, reusable across calls so a caller
/// building many tables allocates them once.
struct AliasScratch {
  std::vector<double> scaled;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
};

/// \brief Vose's alias construction: fill `prob` and `alias` (both of
/// weights.size()) so that SampleAlias draws index i with probability
/// weights[i] / Σweights. Weights must be non-negative with a positive
/// total. O(k), allocation-free once `scratch` has grown to k.
void BuildAlias(std::span<const double> weights, std::span<double> prob,
                std::span<uint32_t> alias, AliasScratch* scratch);

/// \brief One draw from a table built by BuildAlias: one uniform index and
/// one uniform double. Requires a non-empty table.
inline size_t SampleAlias(std::span<const double> prob,
                          std::span<const uint32_t> alias, Rng* rng) {
  const size_t i = rng->UniformInt(prob.size());
  return rng->UniformDouble() < prob[i] ? i : alias[i];
}

/// \brief Alias table for O(1) sampling from a fixed discrete distribution.
///
/// Built once in O(k) from a weight vector; each Sample() costs one random
/// draw and one comparison. Used by the multistage sampler where the
/// bi-component distribution is fixed for the whole run.
class AliasTable {
 public:
  AliasTable() = default;

  /// \brief Build from non-negative weights with positive total mass.
  explicit AliasTable(const std::vector<double>& weights);

  /// \brief Number of outcomes (0 if empty).
  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

  /// \brief Draw an index in [0, size()). Requires a non-empty table.
  size_t Sample(Rng* rng) const { return SampleAlias(prob_, alias_, rng); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace saphyra

#endif  // SAPHYRA_UTIL_RNG_H_
