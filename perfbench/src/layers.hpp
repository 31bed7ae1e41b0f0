// Per-layer timing from outside the program: wrappers around each layer's
// public entry point (the TcpServer handler, a FabricAgent, an HttpClient
// under OfmfClient) that record when a call entered and returned, plus
// before/after deltas of the metrics::Registry histograms the layers keep.
// Nothing here is installed in an untraced run except TimingClient, which
// only reads the clock around Send().
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/metrics.hpp"
#include "driver.hpp"
#include "http/server.hpp"
#include "ofmf/agent.hpp"
#include "redfish/cache.hpp"

namespace perfbench {

/// The handler-side half of one traced request.
struct HandlerSpan {
  std::uint64_t bench_seq = 0;  // X-Bench-Seq of the request (0: none)
  std::string trace_id;         // X-Trace-Id of the request or its response
  std::uint64_t entry_ns = 0;
  std::uint64_t exit_ns = 0;
  double us() const { return static_cast<double>(exit_ns - entry_ns) / 1e3; }
};

/// Thread-safe append-only span store, read once the load has stopped.
class SpanLog {
 public:
  void Record(HandlerSpan span);
  std::vector<HandlerSpan> Take();
  /// Only requests carrying X-Bench-Seq or X-Trace-Id are recorded while on.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<HandlerSpan> spans_;
};

/// Wraps a server handler so every traced call is timed into `log`.
ofmf::http::ServerHandler TimedHandler(ofmf::http::ServerHandler inner, SpanLog& log);

/// Counts calls into a handler (the federation directory).
ofmf::http::ServerHandler CountedHandler(ofmf::http::ServerHandler inner,
                                         std::atomic<std::uint64_t>& calls);

/// A FabricAgent decorator that serializes calls into the wrapped agent and,
/// while enabled, times them. Serializing stands in for a fabric manager's
/// single control channel: the fabricsim managers and the agents' own
/// bookkeeping are not safe under concurrent calls.
class TimingAgent : public ofmf::core::FabricAgent {
 public:
  explicit TimingAgent(std::shared_ptr<ofmf::core::FabricAgent> inner)
      : inner_(std::move(inner)) {}

  std::string agent_id() const override { return inner_->agent_id(); }
  std::string fabric_id() const override { return inner_->fabric_id(); }
  std::string fabric_type() const override { return inner_->fabric_type(); }
  ofmf::Status PublishInventory(ofmf::core::OfmfService& ofmf) override;
  ofmf::Result<std::string> CreateZone(ofmf::core::OfmfService& ofmf,
                                       const ofmf::json::Json& body) override;
  ofmf::Result<std::string> CreateConnection(ofmf::core::OfmfService& ofmf,
                                             const ofmf::json::Json& body) override;
  ofmf::Status DeleteResource(ofmf::core::OfmfService& ofmf, const std::string& uri) override;

  /// Durations (us) of the calls made while the log was enabled.
  std::vector<double> TakeCalls();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

 private:
  void Note(std::uint64_t start_ns);

  std::mutex call_mu_;  // held across every call into inner_
  std::shared_ptr<ofmf::core::FabricAgent> inner_;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<double> calls_us_;
};

/// An HttpClient decorator under OfmfClient: times every Send() as the
/// client sees it and, while stamping is on, tags requests with
/// X-Bench-Seq so the server-side spans can be matched to them.
class TimingClient : public ofmf::http::HttpClient {
 public:
  /// Sorts a request into one of the workload's op kinds.
  using Classify = std::function<int(const ofmf::http::Request&)>;

  struct Call {
    int kind = 0;
    std::uint64_t seq = 0;
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;
    double us() const { return static_cast<double>(recv_ns - send_ns) / 1e3; }
  };

  TimingClient(std::unique_ptr<ofmf::http::HttpClient> inner, Classify classify,
               std::atomic<std::uint64_t>& seq_source, const std::atomic<bool>& stamp)
      : inner_(std::move(inner)),
        classify_(std::move(classify)),
        seq_source_(seq_source),
        stamp_(stamp) {}

  ofmf::Result<ofmf::http::Response> Send(const ofmf::http::Request& request) override;

  /// Calls recorded since the last Take, and "METHOD path: status" for each
  /// of them that got no 2xx/3xx answer. Only the owning thread calls these.
  std::vector<Call> TakeCalls() { return std::move(calls_); }
  std::vector<std::string> TakeErrors() { return std::move(errors_); }
  void set_recording(bool on) { recording_ = on; }

 private:
  std::unique_ptr<ofmf::http::HttpClient> inner_;
  Classify classify_;
  std::atomic<std::uint64_t>& seq_source_;
  const std::atomic<bool>& stamp_;
  bool recording_ = false;
  std::vector<Call> calls_;
  std::vector<std::string> errors_;
};

/// Registry histogram state before a window, for a delta afterwards.
class HistogramDelta {
 public:
  explicit HistogramDelta(const std::string& name);
  /// Samples recorded since construction.
  ofmf::metrics::Histogram::Snapshot Delta() const;

 private:
  std::string name_;
  ofmf::metrics::Histogram::Snapshot before_;
};

/// Joins client samples with handler spans by X-Bench-Seq. `rtt_us`,
/// `inbound_us`, `handle_us` and `outbound_us` receive one entry per matched
/// request.
struct LayerSplit {
  std::vector<double> rtt_us, inbound_us, handle_us, outbound_us;
};
LayerSplit SplitByLayer(const std::vector<Sample>& client,
                        const std::vector<HandlerSpan>& handler);

/// Adds http.inbound_us, ofmf.handle_us (from `handle_us`), http.outbound_us,
/// the three shares of the median round trip, and trace.overhead_frac.
void AddLayerTimings(Report& report, const LayerSplit& split,
                     const std::vector<double>& handle_us, double untraced_p50_us,
                     double traced_p50_us);

/// Front-tier HTTP counters: syscalls per served request and the two
/// rejection counts, from TcpServer::stats() deltas.
void AddServerCounters(Report& report, const ofmf::http::ServerStats& before,
                       const ofmf::http::ServerStats& after,
                       std::uint64_t extra_overload = 0, std::uint64_t extra_rate_limited = 0);

/// redfish.cache_hit_ratio and redfish.invalidations_per_write from
/// ResponseCache::stats() deltas over a window with `writes` mutations.
void AddCacheCounters(Report& report, const ofmf::redfish::ResponseCacheStats& before,
                      const ofmf::redfish::ResponseCacheStats& after, std::size_t writes);

/// Round-trip times (us) of the samples whose kind is in `kinds` (all when
/// empty).
std::vector<double> LatenciesOf(const std::vector<Sample>& samples, std::vector<int> kinds);
/// The same, stamped with each request's send time.
std::vector<Timed> TimedOf(const std::vector<Sample>& samples, std::vector<int> kinds);

/// End-to-end client metrics of a read workload's timed window: ops_per_s
/// and get/collection/write latencies by op kind.
void AddClientMetrics(Report& report, const DriverResult& result, std::vector<int> get_kinds,
                      std::vector<int> collection_kinds, std::vector<int> write_kinds);

/// Detail metrics ofmf.handle_us.<name>.p50/.p99: handler time per op kind.
void AddHandleByKind(Report& report, const std::vector<Sample>& samples,
                     const std::vector<HandlerSpan>& spans,
                     const std::vector<std::pair<int, std::string>>& kinds);

/// proc.* metrics over a window of `ops` completed operations.
void AddProcCounters(Report& report, const ProcCounters& before, const ProcCounters& after,
                     std::uint64_t ops, int idle_threads, int peak_threads);

}  // namespace perfbench
