#ifndef COT_BENCH_E2E_CLOCK_H_
#define COT_BENCH_E2E_CLOCK_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace cot::e2e {

/// steady_clock now, in nanoseconds.
inline uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timestamp: the TSC on x86 (one unserialized `rdtsc`, the cheapest
/// clock read there is), steady_clock nanoseconds elsewhere. Every per-call
/// latency in the benchmark is a difference of two of these.
inline uint64_t Tsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return SteadyNs();
#endif
}

/// A timestamp taken only after every earlier instruction has executed
/// (`rdtscp`), so the latency of a call's outstanding loads stays in the
/// span that issued them instead of spilling into the next one.
inline uint64_t TscOrdered() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int aux = 0;
  return __rdtscp(&aux);
#else
  return SteadyNs();
#endif
}

/// Converts TSC ticks to nanoseconds. The rate is measured against
/// steady_clock over the whole interval between construction and
/// `Calibrate()`, so a run of several seconds pins it to a few ppm.
class TscClock {
 public:
  TscClock() : tsc0_(Tsc()), ns0_(SteadyNs()) {}

  void Calibrate() {
    const uint64_t t = Tsc();
    const uint64_t n = SteadyNs();
    if (n > ns0_ && t > tsc0_) {
      ticks_per_ns_ =
          static_cast<double>(t - tsc0_) / static_cast<double>(n - ns0_);
    }
  }

  double ToNs(double ticks) const { return ticks / ticks_per_ns_; }

 private:
  uint64_t tsc0_;
  uint64_t ns0_;
  double ticks_per_ns_ = 1.0;
};

/// Log-linear histogram of tick counts: exact below 2^kLinearBits ticks,
/// then 2^kSubBits buckets per power of two. A quantile interpolates
/// linearly inside the bucket holding its rank. (`metrics::Histogram` has
/// two buckets per octave, too coarse for percentiles gated at a few
/// percent, and a binary-search `Add`, too slow for a per-call stamp.)
template <int kLinearBits, int kSubBits>
class TickHistogram {
 public:
  TickHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ticks) {
    ++counts_[Index(ticks)];
    ++total_;
  }

  void Merge(const TickHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

  uint64_t count() const { return total_; }

  /// The value at rank ceil(q * count); 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(total_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) >= rank) {
        const double into = (rank - static_cast<double>(seen)) /
                            static_cast<double>(counts_[i]);
        return Lower(i) + Width(i) * (Width(i) > 1.0 ? into : 0.0);
      }
      seen += counts_[i];
    }
    return Lower(kBuckets - 1);
  }

 private:
  static constexpr size_t kLinear = size_t{1} << kLinearBits;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = kLinear + (64 - kLinearBits) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const size_t sub = static_cast<size_t>(v >> (msb - kSubBits)) & (kSub - 1);
    return kLinear + static_cast<size_t>(msb - kLinearBits) * kSub + sub;
  }
  static int Shift(size_t i) {
    return static_cast<int>((i - kLinear) / kSub) + kLinearBits - kSubBits;
  }
  static double Lower(size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    return static_cast<double>((kSub + (i - kLinear) % kSub) << Shift(i));
  }
  static double Width(size_t i) {
    if (i < kLinear) return 1.0;
    return static_cast<double>(uint64_t{1} << Shift(i));
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Per-call latencies: exact to the tick below 8192 ticks (~4 us at 2 GHz).
using LatencyHistogram = TickHistogram<13, 8>;
/// Per-span self times: 1/32 relative resolution in 15 KiB, small enough
/// that recording a span stays in cache.
using SpanHistogram = TickHistogram<5, 5>;

}  // namespace cot::e2e

#endif  // COT_BENCH_E2E_CLOCK_H_
