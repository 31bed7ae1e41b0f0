// Shared vocabulary of the OFMF benchmark: run options, the clock, latency
// summaries, process counters and the metric report every workload fills.
//
// A run prints a human-readable report (environment stamp, every metric by
// name with its unit and sample count) and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs put
// the end-to-end metrics in "metrics", traced runs the per-layer ones.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space inside the checkout (the durable store lives here).
  std::string work_dir = ".bench_build/work";
  /// Identifies the measured source tree (git sha or content digest).
  std::string source_id = "unknown";
};

/// Median, 90th and 99th percentile of a latency sample, with its size.
struct Latency {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Percentiles come from common/stats (linear interpolation).
Latency Summarize(const std::vector<double>& samples);

/// True when `n` samples leave at least ten beyond the p-th percentile, the
/// smallest sample a reported tail may rest on.
bool TailSupported(std::size_t n, double p);

/// Median of a small sample (setup times, per-leg maxima). Each workload
/// builds its stack kSetups times per run (more when a set-up is cheap, so
/// one slow fsync or thread start does not set the figure); setup_s is the
/// median of those times.
double Median(std::vector<double> values);

/// A value stamped with the instant it belongs to (a request's send time).
struct Timed {
  std::uint64_t at_ns = 0;
  double value = 0.0;
};

inline std::vector<double> ValuesOf(const std::vector<Timed>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Timed& sample : samples) values.push_back(sample.value);
  return values;
}

/// End-to-end figures come from this many equal slices of a window.
inline constexpr std::size_t kSlices = 20;

/// The quiet quartile of per-slice figures: the value a quarter of the way
/// from the best slice (25th percentile when lower is better, 75th when
/// higher is). On a shared virtual machine, hypervisor steal arrives in
/// bursts that slow whole slices; this reads the window's quieter three
/// quarters' edge, while a change to the program moves every slice.
double QuietQuartile(std::vector<double> values, bool lower_is_better);

/// The values of `samples` split into kSlices equal spans of their stamps.
std::vector<std::vector<double>> SliceByTime(const std::vector<Timed>& samples);

/// Completions per second: the quiet quartile over kSlices slices of the
/// span from the first to the last completion in `done_ns`.
double SlicedRate(const std::vector<std::uint64_t>& done_ns);

/// getrusage(RUSAGE_SELF) figures the benchmark reads before and after the
/// timed window.
struct ProcCounters {
  double cpu_us = 0.0;  // user + system
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mib = 0.0;
  // Host-wide "cpu" line of /proc/stat: ticks stolen by the hypervisor and
  // all ticks. On a shared virtual machine steal is what moves run-to-run
  // figures, so every report states it.
  std::uint64_t host_steal_ticks = 0;
  std::uint64_t host_total_ticks = 0;
};
ProcCounters ReadProcCounters();
/// "Threads:" of /proc/self/status.
int ThreadCount();

/// Filesystem type of `path` ("ext4", "tmpfs", "overlayfs", ...).
std::string FilesystemType(const std::string& path);

enum class Scope {
  kEndToEnd,  // what a user of the system sees; the untraced run's result
  kLayer,     // one layer, measured on every workload; the traced run's result
  kDetail,    // workload-specific figures, printed but not in the result line
};

class Report {
 public:
  void Add(Scope scope, const std::string& name, double value, const std::string& unit);
  /// Adds the two percentiles under the given names, with their sample
  /// count. Finish() fails the run when a p99 in the result line rests on
  /// fewer than ten samples beyond it.
  void AddLatency(Scope scope, const std::string& p50_name, const std::string& p99_name,
                  const Latency& latency, const std::string& unit);
  /// An end-to-end round-trip latency (us, stamped with send time):
  /// `<base>_p50_us` is the quiet quartile over kSlices equal time slices
  /// of the per-slice medians, so bursts of host noise move some slices,
  /// not the result, and it gates regressions. `<base>_p90_us` (same
  /// slicing) and
  /// `<base>_p99_us` (whole window) are printed as detail: on a shared
  /// virtual machine, hypervisor steal moves tails by more than any usable
  /// bound from one run to the next. Sample counts print with each.
  void AddRoundTrip(const std::string& base, const std::vector<Timed>& samples);
  /// Records an environment fact ("nproc", "io_backend", ...).
  void Stamp(const std::string& key, const std::string& value);
  /// Records a failed check; any failure makes the run exit nonzero.
  void Fail(const std::string& what);
  void CountOps(std::uint64_t attempted, std::uint64_t failed);

  bool has(const std::string& name) const;
  double value(const std::string& name) const;

  /// Prints the report and the result line. Returns the exit code.
  int Finish(bool trace);

 private:
  struct Entry {
    Scope scope;
    double value;
    std::string unit;
    std::size_t samples = 0;  // 0 when not a percentile
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Metric names the result line must carry (mirrors BENCHMARK.json).
extern const std::vector<std::string> kEndToEndMetrics;
extern const std::vector<std::string> kLayerMetrics;

}  // namespace perfbench
