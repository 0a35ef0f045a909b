// Measurement primitives: a log-bucket histogram and a stopwatch.
#ifndef OBJECTBASE_COMMON_STATS_H_
#define OBJECTBASE_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace objectbase {

/// A latency/size histogram with logarithmic buckets.
///
/// Record() is cheap (a handful of arithmetic ops); percentile queries
/// interpolate within buckets.  Not thread-safe: aggregate per-thread
/// instances with Merge().
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;
  /// Approximate value at quantile q in [0, 1].
  uint64_t Percentile(double q) const;

  std::string Summary() const;

 private:
  static constexpr int kBuckets = 64 * 8;  // 8 sub-buckets per power of two.
  static int BucketFor(uint64_t value);
  static uint64_t BucketLow(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ULL;
  uint64_t max_ = 0;
};

/// Wall-clock stopwatch in nanoseconds.
class Stopwatch {
 public:
  Stopwatch();
  /// Nanoseconds since construction or the last Reset().
  uint64_t ElapsedNanos() const;
  double ElapsedSeconds() const;
  void Reset();

 private:
  uint64_t start_ns_;
};

/// Current monotonic time in nanoseconds.
uint64_t NowNanos();

}  // namespace objectbase

#endif  // OBJECTBASE_COMMON_STATS_H_
