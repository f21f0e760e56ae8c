// Streaming statistics and latency histograms for instrumentation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace e2lshos::util {

/// \brief Length of a stats struct's field list: the number of calls
/// `S::ForEachField(fn)` makes (storage::DeviceStats,
/// core::StreamingSnapshot). Their headers static_assert it against the
/// struct's size, so a member missing from the list fails to compile.
template <class S>
constexpr size_t CountFields() {
  size_t n = 0;
  S::ForEachField([&n](const char*, auto) { ++n; });
  return n;
}

/// \brief Welford streaming mean/variance with min/max.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void Merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const uint64_t total = n_ + other.n_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / static_cast<double>(total);
    mean_ = (mean_ * static_cast<double>(n_) +
             other.mean_ * static_cast<double>(other.n_)) /
            static_cast<double>(total);
    n_ = total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Log-scaled latency histogram (nanoseconds), HdrHistogram-lite.
///
/// Buckets are arranged as 64 power-of-two ranges each split into
/// `kSubBuckets` linear sub-buckets, giving ~1.6% relative error.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 64;

  void Add(uint64_t ns) {
    ++count_;
    sum_ += ns;
    max_ = std::max(max_, ns);
    min_ = std::min(min_, ns);
    buckets_[Index(ns)]++;
  }

  void Merge(const LatencyHistogram& other) {
    // A device stats snapshot merges one histogram per layer and per
    // queue, and some stay empty (the retry layer's; a queue registry's
    // retired total until a queue retires): skip their 4096 buckets.
    if (other.count_ == 0) return;
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    min_ = std::min(min_, other.min_);
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / count_ : 0.0; }
  uint64_t max() const { return count_ ? max_ : 0; }
  uint64_t min() const { return count_ ? min_ : 0; }

  /// Value at quantile q in [0,1]; upper bound of the containing bucket,
  /// clamped to the recorded max so no reported percentile ever exceeds
  /// the worst observed latency.
  uint64_t Quantile(double q) const {
    if (count_ == 0) return 0;
    const uint64_t target =
        static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) return std::min(UpperBound(i), max_);
    }
    return max_;
  }

  void Reset() {
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = std::numeric_limits<uint64_t>::max();
    std::fill(buckets_.begin(), buckets_.end(), 0);
  }

 private:
  static size_t Index(uint64_t ns) {
    if (ns < kSubBuckets) return static_cast<size_t>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    const int shift = msb - 6;  // log2(kSubBuckets)
    const uint64_t sub = (ns >> shift) & (kSubBuckets - 1);
    return static_cast<size_t>((msb - 5) * kSubBuckets + sub);
  }

  static uint64_t UpperBound(size_t index) {
    const size_t range = index / kSubBuckets;
    const size_t sub = index % kSubBuckets;
    if (range == 0) return sub;
    const int shift = static_cast<int>(range) - 1;
    return ((static_cast<uint64_t>(kSubBuckets) + sub + 1) << shift) - 1;
  }

  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(64 * kSubBuckets, 0);
};

/// \brief Event rate over a sliding time window, for "sustained QPS".
///
/// The window is a ring of `slots` fixed-width time slots; recording an
/// event bumps the slot covering `now_ns`, lazily resetting slots whose
/// previous occupant has aged out. The reported rate covers the last
/// `slots - 1` full slots plus the elapsed part of the current one, so a
/// burst that ended more than one window ago contributes nothing.
/// Not thread-safe; callers serialize (see core::StreamingServer).
class SlidingWindowRate {
 public:
  explicit SlidingWindowRate(uint64_t window_ns = 1000000000ULL,
                             uint32_t slots = 16)
      : slot_ns_(std::max<uint64_t>(1, window_ns / std::max(1u, slots))),
        slots_(std::max(1u, slots)) {}

  void Record(uint64_t now_ns, uint64_t count = 1) {
    if (first_ns_ == 0 || now_ns < first_ns_) first_ns_ = now_ns;
    Slot& s = slots_[SlotIndex(now_ns)];
    const uint64_t epoch = now_ns / slot_ns_;
    if (s.epoch != epoch) {
      s.epoch = epoch;
      s.count = 0;
    }
    s.count += count;
  }

  /// Events-per-second over the window ending at `now_ns`. Before a full
  /// window has elapsed since the first event, the denominator is the
  /// time actually covered, so a fresh recorder doesn't understate the
  /// rate.
  double RatePerSec(uint64_t now_ns) const {
    if (first_ns_ == 0) return 0.0;
    const uint64_t now_epoch = now_ns / slot_ns_;
    uint64_t events = 0;
    for (const Slot& s : slots_) {
      if (s.epoch <= now_epoch && now_epoch - s.epoch < slots_.size()) {
        events += s.count;
      }
    }
    uint64_t covered_ns =
        (slots_.size() - 1) * slot_ns_ + (now_ns % slot_ns_) + 1;
    if (now_ns >= first_ns_) {
      covered_ns = std::min<uint64_t>(covered_ns, now_ns - first_ns_ + 1);
    }
    return static_cast<double>(events) * 1e9 / static_cast<double>(covered_ns);
  }

  /// Merge another recorder with the same window geometry (per-shard
  /// recorders share wall-clock epochs, so equal epochs are the same
  /// time slot).
  void Merge(const SlidingWindowRate& other) {
    for (size_t i = 0; i < slots_.size() && i < other.slots_.size(); ++i) {
      if (other.slots_[i].epoch == 0 && other.slots_[i].count == 0) continue;
      if (slots_[i].epoch == other.slots_[i].epoch) {
        slots_[i].count += other.slots_[i].count;
      } else if (other.slots_[i].epoch > slots_[i].epoch) {
        slots_[i] = other.slots_[i];
      }
    }
    if (first_ns_ == 0 || (other.first_ns_ != 0 && other.first_ns_ < first_ns_)) {
      first_ns_ = other.first_ns_;
    }
  }

  void Reset() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    first_ns_ = 0;
  }

  uint64_t slot_ns() const { return slot_ns_; }

 private:
  struct Slot {
    uint64_t epoch = 0;  ///< now_ns / slot_ns at last write.
    uint64_t count = 0;
  };

  size_t SlotIndex(uint64_t now_ns) const {
    return static_cast<size_t>((now_ns / slot_ns_) % slots_.size());
  }

  uint64_t slot_ns_;
  std::vector<Slot> slots_;
  uint64_t first_ns_ = 0;
};

/// \brief Streaming latency recorder for a serving front-end: per-query
/// enqueue-to-completion latency quantiles (fixed-bucket histogram) plus
/// sustained completion rate over a sliding window.
///
/// Not thread-safe; the serving layer keeps one recorder per shard
/// worker and merges snapshots (Merge) on demand.
class LatencyRecorder {
 public:
  void Record(uint64_t latency_ns, uint64_t completion_now_ns) {
    hist_.Add(latency_ns);
    rate_.Record(completion_now_ns);
  }

  void Merge(const LatencyRecorder& other) {
    hist_.Merge(other.hist_);
    rate_.Merge(other.rate_);
  }

  void Reset() {
    hist_.Reset();
    rate_.Reset();
  }

  uint64_t count() const { return hist_.count(); }
  double mean_ns() const { return hist_.mean(); }
  uint64_t max_ns() const { return hist_.max(); }
  uint64_t p50_ns() const { return hist_.Quantile(0.50); }
  uint64_t p95_ns() const { return hist_.Quantile(0.95); }
  uint64_t p99_ns() const { return hist_.Quantile(0.99); }
  double SustainedQps(uint64_t now_ns) const { return rate_.RatePerSec(now_ns); }

  const LatencyHistogram& histogram() const { return hist_; }

 private:
  LatencyHistogram hist_;
  SlidingWindowRate rate_;
};

/// \brief Least-squares fit of log(y) = alpha * log(x) + beta.
///
/// Used to validate sublinear query-time scaling (Fig. 14): E2LSH(oS)
/// should fit with exponent alpha well below 1, SRS with alpha ~= 1.
struct PowerLawFit {
  double exponent = 0.0;   // alpha
  double prefactor = 0.0;  // exp(beta)
  double r2 = 0.0;         // coefficient of determination in log-log space
};

inline PowerLawFit FitPowerLaw(const std::vector<double>& xs,
                               const std::vector<double>& ys) {
  PowerLawFit fit;
  const size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    syy += ly * ly;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return fit;
  fit.exponent = (dn * sxy - sx * sy) / denom;
  const double beta = (sy - fit.exponent * sx) / dn;
  fit.prefactor = std::exp(beta);
  const double sse_denom = (dn * sxx - sx * sx) * (dn * syy - sy * sy);
  if (sse_denom > 1e-12) {
    const double r = (dn * sxy - sx * sy) / std::sqrt(sse_denom);
    fit.r2 = r * r;
  }
  return fit;
}

}  // namespace e2lshos::util
