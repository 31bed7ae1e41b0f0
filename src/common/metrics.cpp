#include "common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace ofmf::metrics {
namespace {

// constinit: plain TLS slot, no per-access init guard. 0 means unassigned;
// the slot stores ordinal + 1.
constinit thread_local std::size_t tls_shard = 0;

std::size_t ShardOrdinal() {
  std::size_t slot = tls_shard;
  if (slot == 0) {
    static std::atomic<std::size_t> next{0};
    slot = next.fetch_add(1, std::memory_order_relaxed) + 1;
    tls_shard = slot;
  }
  return slot - 1;
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__x86_64__)
/// Fixed-point ns-per-tick, scaled by 2^24. Calibrated once against
/// steady_clock over a ~2 ms window; on modern invariant-TSC parts the
/// residual error is a fraction of a percent, invisible to log2 buckets.
std::uint64_t CalibrateTscMult() {
  const std::uint64_t ns0 = SteadyNowNs();
  const std::uint64_t tsc0 = __rdtsc();
  while (SteadyNowNs() - ns0 < 2000000) {
  }
  const std::uint64_t tsc1 = __rdtsc();
  const std::uint64_t ns1 = SteadyNowNs();
  const double ns_per_tick = static_cast<double>(ns1 - ns0) /
                             static_cast<double>(tsc1 - tsc0);
  return static_cast<std::uint64_t>(ns_per_tick * static_cast<double>(1 << 24));
}
#endif

}  // namespace

namespace {
#if defined(__x86_64__)
// 0 = not yet calibrated. constinit atomic instead of a function-local
// static: the hot path pays one relaxed load, no init-guard acquire. Two
// threads may race to calibrate; they store near-identical values.
constinit std::atomic<std::uint64_t> g_tsc_mult{0};
#endif
}  // namespace

std::uint64_t FastNowNs() {
#if defined(__x86_64__)
  std::uint64_t mult = g_tsc_mult.load(std::memory_order_relaxed);
  if (mult == 0) {
    mult = CalibrateTscMult();
    g_tsc_mult.store(mult, std::memory_order_relaxed);
  }
  const std::uint64_t tsc = __rdtsc();
  // 64x64 -> top-104-bits multiply without __int128: split the tick count so
  // neither partial product can overflow (mult is ~2^22-2^23).
  return ((tsc >> 32) * mult << 8) + (((tsc & 0xffffffffull) * mult) >> 24);
#else
  return SteadyNowNs();
#endif
}

std::size_t Histogram::BucketOf(std::uint64_t value) {
  // bit_width(0) == 0, so zero-valued samples land in bucket 0 and everything
  // past 2^(kBuckets-1) collapses into the last bucket.
  return std::min<std::size_t>(std::bit_width(value), kBuckets - 1);
}

void Histogram::Record(std::uint64_t value) {
  Shard& shard = shards_[ShardOrdinal() % kShards];
  shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = shard.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
  }
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    shard.sum.store(0, std::memory_order_relaxed);
    for (auto& bucket : shard.buckets) bucket.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t before = seen;
    seen += buckets[i];
    if (static_cast<double>(seen) < rank) continue;
    // Bucket i spans [2^(i-1), 2^i); interpolate position inside it.
    const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
    const double hi = static_cast<double>(i == 0 ? 1ull : (1ull << std::min<std::size_t>(i, 63)));
    const double frac =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  // Unreachable: seen ends at count and rank <= count, but keep a sane bound.
  return static_cast<double>(1ull << std::min<std::size_t>(kBuckets - 1, 63));
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  sum += other.sum;
  count = DerivedCount();
}

std::uint64_t Histogram::Snapshot::DerivedCount() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : buckets) total += n;
  return total;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::map<std::string, Histogram::Snapshot> Registry::HistogramSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Histogram::Snapshot> out;
  for (const auto& [name, hist] : histograms_) {
    out.emplace_hint(out.end(), name, hist->snapshot());
  }
  return out;
}

std::map<std::string, std::uint64_t> Registry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    out.emplace_hint(out.end(), name, counter->value());
  }
  return out;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, hist] : histograms_) hist->Reset();
  for (auto& [name, counter] : counters_) counter->Reset();
}

}  // namespace ofmf::metrics
