// The benchmark's own load generator: a seeded PRNG, a Zipf sampler and
// seeded permutations.  Everything here is independent of the library, so a
// change to src/ can never change the inputs a seed produces.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0) : s_(seed) {}

  /// A stream for (seed, stream id): distinct clients and phases draw from
  /// unrelated sequences of the same run seed.
  static Rng Stream(uint64_t seed, uint64_t stream) {
    Rng r(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    r.Next();
    return r;
  }

  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >>
                                 64);
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Zipf over ranks [0, n): P(rank i) proportional to 1 / (i + 1)^theta.
/// theta = 0 is uniform.  Sampling is a binary search of the CDF.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  uint64_t Sample(Rng& rng) const {
    double u = rng.Unit();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint64_t>(it - cdf_.begin());
  }

  uint64_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// A seeded permutation of [0, n): maps Zipf ranks to keys, so which keys
/// are hot depends on the seed but how hot they are does not.
inline std::vector<uint32_t> Permutation(uint32_t n, Rng rng) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (uint32_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
