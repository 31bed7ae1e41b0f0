#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "common/trace.hpp"
#include "driver.hpp"

namespace perfbench {

namespace http = ofmf::http;

void SpanLog::Record(HandlerSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<HandlerSpan> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

http::ServerHandler TimedHandler(http::ServerHandler inner, SpanLog& log) {
  return [inner = std::move(inner), &log](const http::Request& request) {
    if (!log.enabled()) return inner(request);
    HandlerSpan span;
    span.entry_ns = NowNs();
    http::Response response = inner(request);
    span.exit_ns = NowNs();
    const std::string seq = request.headers.GetOr(kBenchSeqHeader, "");
    span.bench_seq = seq.empty() ? 0 : std::strtoull(seq.c_str(), nullptr, 10);
    span.trace_id = request.headers.GetOr(ofmf::trace::kTraceIdHeader, "");
    if (span.trace_id.empty()) {
      span.trace_id = response.headers.GetOr(ofmf::trace::kTraceIdHeader, "");
    }
    if (span.bench_seq != 0 || !span.trace_id.empty()) log.Record(std::move(span));
    return response;
  };
}

http::ServerHandler CountedHandler(http::ServerHandler inner,
                                   std::atomic<std::uint64_t>& calls) {
  return [inner = std::move(inner), &calls](const http::Request& request) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return inner(request);
  };
}

void TimingAgent::Note(std::uint64_t start_ns) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const double us = static_cast<double>(NowNs() - start_ns) / 1e3;
  std::lock_guard<std::mutex> lock(mu_);
  calls_us_.push_back(us);
}

ofmf::Status TimingAgent::PublishInventory(ofmf::core::OfmfService& ofmf) {
  std::lock_guard<std::mutex> serial(call_mu_);
  const std::uint64_t start = NowNs();
  ofmf::Status status = inner_->PublishInventory(ofmf);
  Note(start);
  return status;
}

ofmf::Result<std::string> TimingAgent::CreateZone(ofmf::core::OfmfService& ofmf,
                                                  const ofmf::json::Json& body) {
  std::lock_guard<std::mutex> serial(call_mu_);
  const std::uint64_t start = NowNs();
  auto created = inner_->CreateZone(ofmf, body);
  Note(start);
  return created;
}

ofmf::Result<std::string> TimingAgent::CreateConnection(ofmf::core::OfmfService& ofmf,
                                                        const ofmf::json::Json& body) {
  std::lock_guard<std::mutex> serial(call_mu_);
  const std::uint64_t start = NowNs();
  auto created = inner_->CreateConnection(ofmf, body);
  Note(start);
  return created;
}

ofmf::Status TimingAgent::DeleteResource(ofmf::core::OfmfService& ofmf,
                                         const std::string& uri) {
  std::lock_guard<std::mutex> serial(call_mu_);
  const std::uint64_t start = NowNs();
  ofmf::Status status = inner_->DeleteResource(ofmf, uri);
  Note(start);
  return status;
}

std::vector<double> TimingAgent::TakeCalls() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(calls_us_);
}

ofmf::Result<http::Response> TimingClient::Send(const http::Request& request) {
  Call call;
  call.kind = classify_(request);
  ofmf::Result<http::Response> response = [&] {
    if (!stamp_.load(std::memory_order_relaxed)) {
      call.send_ns = NowNs();
      return inner_->Send(request);
    }
    http::Request stamped = request;
    call.seq = seq_source_.fetch_add(1, std::memory_order_relaxed);
    stamped.headers.Set(kBenchSeqHeader, std::to_string(call.seq));
    call.send_ns = NowNs();
    return inner_->Send(stamped);
  }();
  call.recv_ns = NowNs();
  if (!recording_) return response;
  calls_.push_back(call);
  const int status = response.ok() ? response->status : 0;
  if (status < 200 || status >= 400) {
    errors_.push_back(std::string(http::to_string(request.method)) + " " + request.path +
                      ": status " + std::to_string(status));
  }
  return response;
}

HistogramDelta::HistogramDelta(const std::string& name)
    : name_(name),
      before_(ofmf::metrics::Registry::instance().histogram(name).snapshot()) {}

ofmf::metrics::Histogram::Snapshot HistogramDelta::Delta() const {
  ofmf::metrics::Histogram::Snapshot after =
      ofmf::metrics::Registry::instance().histogram(name_).snapshot();
  ofmf::metrics::Histogram::Snapshot delta;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
    delta.buckets[b] = after.buckets[b] - before_.buckets[b];
  }
  delta.sum = after.sum - before_.sum;
  delta.count = delta.DerivedCount();
  return delta;
}

LayerSplit SplitByLayer(const std::vector<Sample>& client,
                        const std::vector<HandlerSpan>& handler) {
  std::unordered_map<std::uint64_t, const HandlerSpan*> by_seq;
  by_seq.reserve(handler.size());
  for (const HandlerSpan& span : handler) {
    if (span.bench_seq != 0) by_seq[span.bench_seq] = &span;
  }
  LayerSplit split;
  for (const Sample& timing : client) {
    const auto it = by_seq.find(timing.seq);
    if (it == by_seq.end()) continue;
    const HandlerSpan& span = *it->second;
    if (span.entry_ns < timing.send_ns || span.exit_ns > timing.recv_ns) continue;
    split.rtt_us.push_back(static_cast<double>(timing.recv_ns - timing.send_ns) / 1e3);
    split.inbound_us.push_back(static_cast<double>(span.entry_ns - timing.send_ns) / 1e3);
    split.handle_us.push_back(span.us());
    split.outbound_us.push_back(static_cast<double>(timing.recv_ns - span.exit_ns) / 1e3);
  }
  return split;
}

void AddLayerTimings(Report& report, const LayerSplit& split,
                     const std::vector<double>& handle_us, double untraced_p50_us,
                     double traced_p50_us) {
  const Latency inbound = Summarize(split.inbound_us);
  const Latency outbound = Summarize(split.outbound_us);
  const Latency handle = Summarize(handle_us);
  report.AddLatency(Scope::kLayer, "http.inbound_us.p50", "http.inbound_us.p99", inbound, "us");
  report.AddLatency(Scope::kLayer, "http.outbound_us.p50", "http.outbound_us.p99", outbound,
                    "us");
  report.AddLatency(Scope::kLayer, "ofmf.handle_us.p50", "ofmf.handle_us.p99", handle, "us");
  const double rtt_p50 = Median(split.rtt_us);
  const auto share = [&](double part) { return rtt_p50 > 0 ? part / rtt_p50 : 0.0; };
  report.Add(Scope::kDetail, "trace.rtt_us.p50", rtt_p50, "us");
  report.Add(Scope::kLayer, "http.inbound_share", share(inbound.p50), "ratio");
  report.Add(Scope::kLayer, "ofmf.handle_share", share(Median(split.handle_us)), "ratio");
  report.Add(Scope::kLayer, "http.outbound_share", share(outbound.p50), "ratio");
  report.Add(Scope::kLayer, "trace.overhead_frac",
             untraced_p50_us > 0 ? traced_p50_us / untraced_p50_us - 1.0 : 0.0, "ratio");
}

void AddServerCounters(Report& report, const http::ServerStats& before,
                       const http::ServerStats& after, std::uint64_t extra_overload,
                       std::uint64_t extra_rate_limited) {
  const std::uint64_t served = after.requests_served - before.requests_served;
  const std::uint64_t syscalls =
      (after.io_recv_calls - before.io_recv_calls) + (after.io_send_calls - before.io_send_calls) +
      (after.backend_wait_calls - before.backend_wait_calls) +
      (after.backend_ctl_calls - before.backend_ctl_calls);
  report.Add(Scope::kLayer, "http.syscalls_per_req",
             served == 0 ? 0.0 : static_cast<double>(syscalls) / static_cast<double>(served),
             "count");
  const std::uint64_t overload =
      after.overload_rejections - before.overload_rejections + extra_overload;
  const std::uint64_t rate_limited =
      after.rate_limited_rejections - before.rate_limited_rejections + extra_rate_limited;
  report.Add(Scope::kLayer, "http.overload_rejections", static_cast<double>(overload), "count");
  report.Add(Scope::kLayer, "http.rate_limited", static_cast<double>(rate_limited), "count");
  if (overload != 0 || rate_limited != 0) {
    report.Fail("the front tier rejected " + std::to_string(overload + rate_limited) +
                " requests (503/429); the load must stay below admission limits");
  }
}

void AddCacheCounters(Report& report, const ofmf::redfish::ResponseCacheStats& before,
                      const ofmf::redfish::ResponseCacheStats& after, std::size_t writes) {
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t lookups = hits + (after.misses - before.misses);
  report.Add(Scope::kLayer, "redfish.cache_hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
             "ratio");
  report.Add(Scope::kLayer, "redfish.invalidations_per_write",
             writes == 0 ? 0.0
                         : static_cast<double>(after.invalidations - before.invalidations) /
                               static_cast<double>(writes),
             "ratio");
}

std::vector<double> LatenciesOf(const std::vector<Sample>& samples, std::vector<int> kinds) {
  std::vector<double> out;
  for (const Sample& sample : samples) {
    if (kinds.empty() || std::find(kinds.begin(), kinds.end(), sample.kind) != kinds.end()) {
      out.push_back(sample.us());
    }
  }
  return out;
}

std::vector<Timed> TimedOf(const std::vector<Sample>& samples, std::vector<int> kinds) {
  std::vector<Timed> out;
  for (const Sample& sample : samples) {
    if (kinds.empty() || std::find(kinds.begin(), kinds.end(), sample.kind) != kinds.end()) {
      out.push_back(Timed{sample.send_ns, sample.us()});
    }
  }
  return out;
}

void AddClientMetrics(Report& report, const DriverResult& result, std::vector<int> get_kinds,
                      std::vector<int> collection_kinds, std::vector<int> write_kinds) {
  std::vector<std::uint64_t> done_ns;
  for (const Sample& sample : result.samples) done_ns.push_back(sample.recv_ns);
  report.Add(Scope::kEndToEnd, "ops_per_s", SlicedRate(done_ns), "1/s");
  report.AddRoundTrip("get", TimedOf(result.samples, std::move(get_kinds)));
  report.AddRoundTrip("collection", TimedOf(result.samples, std::move(collection_kinds)));
  report.AddRoundTrip("write", TimedOf(result.samples, std::move(write_kinds)));
}

void AddHandleByKind(Report& report, const std::vector<Sample>& samples,
                     const std::vector<HandlerSpan>& spans,
                     const std::vector<std::pair<int, std::string>>& kinds) {
  std::unordered_map<std::uint64_t, int> kind_of;
  kind_of.reserve(samples.size());
  for (const Sample& sample : samples) kind_of[sample.seq] = sample.kind;
  std::map<int, std::vector<double>> by_kind;
  for (const HandlerSpan& span : spans) {
    const auto it = kind_of.find(span.bench_seq);
    if (it != kind_of.end()) by_kind[it->second].push_back(span.us());
  }
  for (const auto& [kind, name] : kinds) {
    const std::string base = "ofmf.handle_us." + name;
    report.AddLatency(Scope::kDetail, base + ".p50", base + ".p99", Summarize(by_kind[kind]),
                      "us");
  }
}

void AddProcCounters(Report& report, const ProcCounters& before, const ProcCounters& after,
                     std::uint64_t ops, int idle_threads, int peak_threads) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  report.Add(Scope::kLayer, "proc.cpu_us_per_op", (after.cpu_us - before.cpu_us) / n, "us");
  report.Add(Scope::kLayer, "proc.ctx_switches_per_op",
             static_cast<double>(after.ctx_switches - before.ctx_switches) / n, "count");
  report.Add(Scope::kLayer, "proc.threads_added_peak",
             static_cast<double>(std::max(0, peak_threads - idle_threads)), "count");
  const std::uint64_t total = after.host_total_ticks - before.host_total_ticks;
  report.Add(Scope::kDetail, "host.steal_frac",
             total == 0 ? 0.0
                        : static_cast<double>(after.host_steal_ticks - before.host_steal_ticks) /
                              static_cast<double>(total),
             "ratio");
}

}  // namespace perfbench
