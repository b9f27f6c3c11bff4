#ifndef REACHBENCH_STATS_H_
#define REACHBENCH_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace reachbench {

/// Latency histogram: exact 1 ns buckets below 512 ns, then 256 buckets
/// per power of two (0.4% wide). Recording is one increment, so readers
/// and writers can time every call without storing every sample.
/// Percentiles interpolate inside the bucket that holds the rank.
class Histogram {
 public:
  void Record(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
    sum_ += ns;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// The q-quantile (0 <= q <= 1) in ns; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = buckets_[i];
      if (c == 0) continue;
      if (static_cast<double>(below + c) > rank) {
        const double within = (rank - static_cast<double>(below) + 0.5) / c;
        return static_cast<double>(Lower(i)) +
               within * static_cast<double>(Lower(i + 1) - Lower(i));
      }
      below += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static constexpr size_t kLinear = 512;  // 2^9
  static constexpr size_t kSub = 256;     // buckets per octave above it
  static constexpr size_t kOctaves = 40;  // up to 2^49 ns
  static constexpr size_t kBuckets = kLinear + kOctaves * kSub;

  static size_t Index(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= 9
    const size_t octave = std::min<size_t>(static_cast<size_t>(e - 9),
                                           kOctaves - 1);
    const size_t sub = static_cast<size_t>(v >> (e - 8)) & (kSub - 1);
    return kLinear + octave * kSub + sub;
  }
  static uint64_t Lower(size_t i) {
    if (i < kLinear) return i;
    const size_t octave = (i - kLinear) / kSub;
    const uint64_t sub = (i - kLinear) % kSub;
    return (kSub + sub) << (octave + 1);
  }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Median of a small sample (upper median for even sizes); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one phase measured: named metrics with units, plus the operations
/// it attempted and how many of them failed (wrong answer, inexact
/// answer, or rejected batch).
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Peak resident set of this process in MiB (getrusage).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace reachbench

#endif  // REACHBENCH_STATS_H_
