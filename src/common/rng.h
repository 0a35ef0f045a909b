// Deterministic pseudo-random number generation for workloads and tests.
#ifndef OBJECTBASE_COMMON_RNG_H_
#define OBJECTBASE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace objectbase {

/// A small, fast, seedable PRNG (splitmix64 + xoshiro256**).
///
/// Every workload generator and property test takes an explicit Rng so runs
/// are reproducible from a seed.  Not thread-safe; give each thread its own
/// instance (e.g. via Fork()).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, n).  Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform in [lo, hi] inclusive.  Requires lo <= hi.
  int64_t Range(int64_t lo, int64_t hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Derives an independent generator (for per-thread streams).
  Rng Fork();

  /// Samples an index from `weights` proportionally.  Requires a positive
  /// total weight.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t s_[4];
};

/// Zipf-distributed key sampler over [0, n); exponent `theta` in [0, 1).
/// theta = 0 is uniform; larger theta concentrates mass on low keys.
/// Used for hot/cold object skew in workloads.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

}  // namespace objectbase

#endif  // OBJECTBASE_COMMON_RNG_H_
