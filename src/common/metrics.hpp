// Fixed-bucket histograms and counters for the management plane. Recording
// is lock-free — power-of-two buckets of relaxed atomics, sharded by thread
// ordinal so concurrent connection threads do not bounce one cache line —
// and aggregation happens only on scrape (the Redfish MetricReports path and
// the bench dump). Values are generic unsigned magnitudes: latency series
// record nanoseconds, size series record plain counts; the log2 buckets
// serve both.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ofmf::metrics {

class Histogram {
 public:
  /// Bucket i holds values v with bit_width(v) == i, i.e. [2^(i-1), 2^i).
  /// 40 buckets cover 1 ns .. ~9 minutes of latency; the last bucket absorbs
  /// the tail.
  static constexpr std::size_t kBuckets = 40;
  static constexpr std::size_t kShards = 8;

  void Record(std::uint64_t value);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// Linear interpolation inside the crossing bucket; an estimate with
    /// bounded relative error (one octave), which is what p50/p95/p99
    /// reporting needs. Returns 0 when empty.
    double Percentile(double p) const;
    double mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }

    /// Bucket-wise accumulation for fleet aggregation: buckets and sums add,
    /// and `count` is re-derived from the merged buckets — never trusted from
    /// the other snapshot — so a merge of merges stays self-consistent.
    void Merge(const Snapshot& other);
    /// Sum of the buckets (the authoritative sample count).
    std::uint64_t DerivedCount() const;
  };
  Snapshot snapshot() const;
  void Reset();

 private:
  // No separate count atomic: the sample count is the bucket total, summed
  // at snapshot time. Record() is two relaxed fetch_adds.
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  static std::size_t BucketOf(std::uint64_t value);

  std::array<Shard, kShards> shards_;
};

class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Process-global name -> instrument registry. Instruments are created on
/// first use and never destroyed, so the references handed out stay valid;
/// hot paths look a name up once and keep the reference.
class Registry {
 public:
  static Registry& instance();

  Histogram& histogram(const std::string& name);
  Counter& counter(const std::string& name);

  /// Every instrument's value by name; histograms aggregate their shards at
  /// call time.
  std::map<std::string, Histogram::Snapshot> HistogramSnapshots() const;
  std::map<std::string, std::uint64_t> CounterValues() const;

  /// Zeroes every instrument (names and references survive).
  void ResetAll();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/// Cheap monotonic nanoseconds for latency timing. On x86-64 this is a raw
/// TSC read scaled by a once-calibrated fixed-point multiplier (~3x cheaper
/// than the vDSO clock_gettime behind steady_clock — the difference matters
/// when the timed operation itself is a microsecond); elsewhere it falls
/// back to steady_clock. Calibration error is well under an octave, which
/// the log2 buckets cannot even see. Only differences are meaningful.
std::uint64_t FastNowNs();

/// RAII latency timer: records elapsed nanoseconds into the histogram on
/// destruction. With a null histogram the constructor skips even the clock
/// read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ns_ = FastNowNs();
  }
  explicit ScopedTimer(Histogram& hist) : ScopedTimer(&hist) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record(ElapsedNs());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  std::uint64_t ElapsedNs() const { return FastNowNs() - start_ns_; }
  void Cancel() { hist_ = nullptr; }

 private:
  Histogram* hist_;
  std::uint64_t start_ns_ = 0;  // read only when hist_ set
};

}  // namespace ofmf::metrics
