#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/stats.hpp"

namespace perfbench {

const std::vector<std::string> kEndToEndMetrics = {
    "setup_s",    "peak_rss_mb",       "ops_per_s",
    "get_p50_us", "collection_p50_us", "write_p50_us",
};

const std::vector<std::string> kLayerMetrics = {
    "http.inbound_us.p50",       "http.inbound_us.p99",
    "http.outbound_us.p50",      "http.outbound_us.p99",
    "ofmf.handle_us.p50",        "ofmf.handle_us.p99",
    "http.inbound_share",        "ofmf.handle_share",
    "http.outbound_share",       "http.syscalls_per_req",
    "http.overload_rejections",  "http.rate_limited",
    "redfish.cache_hit_ratio",   "redfish.invalidations_per_write",
    "proc.cpu_us_per_op",        "proc.ctx_switches_per_op",
    "proc.threads_added_peak",   "trace.overhead_frac",
};

Latency Summarize(const std::vector<double>& samples) {
  Latency latency;
  latency.n = samples.size();
  if (samples.empty()) return latency;
  latency.p50 = ofmf::Percentile(samples, 50.0);
  latency.p90 = ofmf::Percentile(samples, 90.0);
  latency.p99 = ofmf::Percentile(samples, 99.0);
  return latency;
}

bool TailSupported(std::size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : ofmf::Percentile(std::move(values), 50.0);
}

double QuietQuartile(std::vector<double> values, bool lower_is_better) {
  if (values.empty()) return 0.0;
  return ofmf::Percentile(std::move(values), lower_is_better ? 25.0 : 75.0);
}

ProcCounters ReadProcCounters() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  ProcCounters counters;
  counters.cpu_us = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
                    static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  counters.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  counters.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8 && cpu == "cpu"; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    counters.host_total_ticks += ticks;
    if (field == 7) counters.host_steal_ticks = ticks;
  }
  return counters;
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

void Report::Add(Scope scope, const std::string& name, double value, const std::string& unit) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{scope, value, unit, 0};
}

void Report::AddLatency(Scope scope, const std::string& p50_name, const std::string& p99_name,
                        const Latency& latency, const std::string& unit) {
  Add(scope, p50_name, latency.p50, unit);
  Add(scope, p99_name, latency.p99, unit);
  metrics_[p50_name].samples = latency.n;
  metrics_[p99_name].samples = latency.n;
  if (latency.n == 0 && scope != Scope::kDetail) Fail(p50_name + ": no samples");
}

std::vector<std::vector<double>> SliceByTime(const std::vector<Timed>& samples) {
  std::vector<std::vector<double>> slices(kSlices);
  if (samples.empty()) return slices;
  std::uint64_t first = samples.front().at_ns, last = first;
  for (const Timed& sample : samples) {
    first = std::min(first, sample.at_ns);
    last = std::max(last, sample.at_ns);
  }
  const double span = static_cast<double>(last - first) + 1.0;
  for (const Timed& sample : samples) {
    const auto slice = static_cast<std::size_t>(static_cast<double>(sample.at_ns - first) /
                                                span * kSlices);
    slices[std::min(slice, kSlices - 1)].push_back(sample.value);
  }
  return slices;
}

double SlicedRate(const std::vector<std::uint64_t>& done_ns) {
  if (done_ns.size() < 2) return 0.0;
  std::vector<Timed> stamps;
  for (const std::uint64_t at : done_ns) stamps.push_back(Timed{at, 0.0});
  const auto [first, last] = std::minmax_element(done_ns.begin(), done_ns.end());
  const double slice_s = static_cast<double>(*last - *first) / 1e9 / kSlices;
  std::vector<double> rates;
  for (const std::vector<double>& slice : SliceByTime(stamps)) {
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
  }
  return QuietQuartile(std::move(rates), false);
}

void Report::AddRoundTrip(const std::string& base, const std::vector<Timed>& samples) {
  std::vector<double> p50s, p90s;
  std::size_t smallest = samples.size();
  for (const std::vector<double>& slice : SliceByTime(samples)) {
    const Latency latency = Summarize(slice);
    p50s.push_back(latency.p50);
    p90s.push_back(latency.p90);
    smallest = std::min(smallest, slice.size());
  }
  std::vector<double> all;
  for (const Timed& sample : samples) all.push_back(sample.value);
  const struct {
    const char* suffix;
    double value;
    Scope scope;
    std::size_t samples;
  } points[] = {{"_p50_us", QuietQuartile(p50s, true), Scope::kEndToEnd, smallest},
                {"_p90_us", QuietQuartile(p90s, true), Scope::kDetail, smallest},
                {"_p99_us", Summarize(all).p99, Scope::kDetail, all.size()}};
  for (const auto& point : points) {
    const std::string name = base + point.suffix;
    Add(point.scope, name, point.value, "us");
    metrics_[name].samples = point.samples;
  }
  if (samples.empty()) Fail(base + ": no samples");
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, value);
}

void Report::Fail(const std::string& what) {
  if (failures_.size() < 32) failures_.push_back(what);
  else if (failures_.size() == 32) failures_.push_back("... (further failures omitted)");
}

void Report::CountOps(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::has(const std::string& name) const { return metrics_.count(name) != 0; }

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

int Report::Finish(bool trace) {
  const std::vector<std::string>& required = trace ? kLayerMetrics : kEndToEndMetrics;
  for (const std::string& name : required) {
    if (!has(name)) {
      Fail("metric not measured: " + name);
      continue;
    }
    const Entry& entry = metrics_.at(name);
    for (const double p : {90.0, 99.0}) {
      const std::string tag = "p" + std::to_string(static_cast<int>(p));
      if (name.find(tag) != std::string::npos && !TailSupported(entry.samples, p)) {
        Fail(name + ": " + std::to_string(entry.samples) + " samples leave fewer than 10 beyond the " +
             tag);
      }
    }
  }

  std::printf("environment:\n");
  for (const auto& [key, value] : stamps_) std::printf("  %-22s %s\n", key.c_str(), value.c_str());
  static const char* kTitles[] = {"end-to-end", "per-layer", "detail"};
  for (const Scope scope : {Scope::kEndToEnd, Scope::kLayer, Scope::kDetail}) {
    bool header = false;
    for (const std::string& name : order_) {
      const Entry& entry = metrics_.at(name);
      if (entry.scope != scope) continue;
      if (!header) {
        std::printf("%s metrics:\n", kTitles[static_cast<int>(scope)]);
        header = true;
      }
      if (entry.samples != 0) {
        std::printf("  %-44s %14.4f %-8s (n=%zu)\n", name.c_str(), entry.value,
                    entry.unit.c_str(), entry.samples);
      } else {
        std::printf("  %-44s %14.4f %s\n", name.c_str(), entry.value, entry.unit.c_str());
      }
    }
  }
  std::printf("ops: attempted %" PRIu64 ", failed %" PRIu64 "\n", attempted_, failed_);
  for (const std::string& failure : failures_) std::printf("FAILED CHECK: %s\n", failure.c_str());

  const bool correct = failures_.empty() && failed_ == 0 && attempted_ > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : required) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", it->second.value);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + it->second.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
