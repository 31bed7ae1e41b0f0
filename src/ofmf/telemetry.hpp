// TelemetryService: the "subscription-based central repository for telemetry
// information". Agents push MetricReports (power, port counters, pool
// utilization); clients read them from the tree or subscribe to
// MetricReport events.
//
// The five service-internal reports (ResponseCache, Resilience,
// RequestLatency, EventDelivery, TenantQoS) and the MetricsDump document are
// projections of one TelemetrySnapshot. A shard draws them from its own
// state; the federation router parses each shard's dump back into a
// snapshot, merges them, and serves the same reports from the same builders.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/qos.hpp"
#include "common/result.hpp"
#include "common/trace.hpp"
#include "json/value.hpp"
#include "ofmf/breaker.hpp"
#include "ofmf/events.hpp"
#include "redfish/cache.hpp"
#include "redfish/tree.hpp"

namespace ofmf::core {

struct MetricValue {
  std::string metric_id;   // "PowerConsumedWatts"
  double value = 0.0;
  std::string property;    // origin @odata.id (optional)
};

/// Point-in-time view of the service's resilience machinery: one breaker
/// per registered agent plus the idempotent-POST replay counter.
struct ResilienceSnapshot {
  struct FabricBreaker {
    std::string fabric_id;
    BreakerState state = BreakerState::kClosed;
    BreakerStats stats;
    bool degraded = false;  // fabric subtree currently marked Critical
  };
  std::vector<FabricBreaker> breakers;
  std::uint64_t replayed_posts = 0;  // POSTs answered from the replay cache
};

/// Everything a service-internal MetricReport or a MetricsDump reads.
struct TelemetrySnapshot {
  /// The process whose registry and trace recorder filled histograms,
  /// counters and trace: 16 hex digits of a random 64-bit value minted once
  /// per process (a dump's ProcessId). Shards that share a process report
  /// one id, and a fleet merge counts those three sections once per id.
  std::string process_id;
  std::map<std::string, metrics::Histogram::Snapshot> histograms;
  std::map<std::string, std::uint64_t> counters;
  trace::TraceStats trace;
  redfish::ResponseCacheStats cache;
  DeliverySnapshot delivery;
  ResilienceSnapshot resilience;
  std::vector<qos::TenantStats> tenants;

  /// Folds in another shard's snapshot. Histograms merge bucket-wise (fleet
  /// percentiles come from the merged buckets; percentiles do not average),
  /// counters and totals add, high-water marks (LastSequence, MaxQueueDepth,
  /// MaxCursorLag) take the larger value, and breaker lists concatenate (a
  /// fabric lives on one shard). Per-subscriber and per-tenant detail is
  /// shard-local and does not merge.
  void Merge(const TelemetrySnapshot& other);
};

/// Which side a report is built for: same Id, MetricIds and values, but a
/// fleet report says "Fleet" in its Name and MetricProperty labels, adds
/// Resilience's BreakersOpen and BreakersTotal, and leaves the Oem detail of
/// shard-local state to the router.
enum class ReportScope { kShard, kFleet };

/// A builder returns Id, Name, ReportSequence, MetricValues (MetricId,
/// MetricValue, MetricProperty) and any Oem member; the shard stamps a
/// Timestamp on each entry when it publishes. nullptr for an unknown id.
using ReportBuilder = json::Json (*)(const TelemetrySnapshot&, ReportScope);
ReportBuilder FindReportBuilder(std::string_view report_id);

/// A report body and one MetricValues entry, as every builder writes them,
/// and a document's Oem.Ofmf object (created if absent).
json::Json ReportBody(const std::string& id, const std::string& name, json::Array values);
json::Json MetricEntry(const std::string& id, double value, const std::string& property);
json::Object& OfmfOem(json::Json& doc);

/// Appends BreakersOpen, BreakersTotal, ReplayedPosts and Breakers (FabricId,
/// State, Degraded, plus the counters when `with_counts`): the dump's
/// Resilience section, heartbeat stats, and the fleet report's per-shard
/// entries.
void AppendResilienceSummary(json::Object& into, const ResilienceSnapshot& snapshot,
                             bool with_counts);

/// The MetricsDump document: `head` (a shard's ShardId, the router's Shards),
/// ProcessId when the snapshot has one, Histograms with raw log2 buckets,
/// Counters, Trace, ResponseCache, EventDelivery and Resilience.
json::Json RenderDump(json::Member head, const TelemetrySnapshot& snapshot);

/// Reads a MetricsDump back; fails only on a document that is not an object.
/// A missing field reads as zero; an entry whose value is negative or not an
/// integer is skipped (a histogram as a whole, if any bucket or its Sum is).
Result<TelemetrySnapshot> ParseDump(const json::Json& dump);

/// State the reports read besides the process-global metrics registry and
/// trace recorder. An unset source leaves its section zero.
struct TelemetrySources {
  std::function<redfish::ResponseCacheStats()> cache;
  std::function<DeliverySnapshot()> delivery;
  std::function<ResilienceSnapshot()> resilience;
};

class TelemetryService {
 public:
  TelemetryService(redfish::ResourceTree& tree, EventService& events, SimClock& clock,
                   TelemetrySources sources = {});

  Status Bootstrap();

  /// Creates-or-replaces the report `report_id` and fires a MetricReport
  /// event. Repeated pushes to the same id overwrite (latest snapshot).
  Status PushReport(const std::string& report_id, const std::vector<MetricValue>& values);

  Result<json::Json> GetReport(const std::string& report_id) const;
  std::vector<std::string> ReportIds() const;

  /// URI of the report `report_id`.
  static std::string ReportUri(std::string_view report_id);

  /// Where the TenantQoS report pulls scheduler counters from (the reactor's
  /// TcpServer::TenantQosStats, wired by whoever owns both). Null = the
  /// report carries only the per-tenant latency histograms.
  void SetTenantQosSource(std::function<std::vector<qos::TenantStats>()> source);

  /// Reads every source into one snapshot (what MetricsDump renders).
  TelemetrySnapshot Collect() const;

  /// Republishes the service-internal report at `path` (normalized) from its
  /// sources; any other path is a no-op. RefreshAll republishes all five
  /// from one snapshot. Quiet: a report equal to the last one published
  /// under its id, timestamps aside, is left alone (its ETag holds), and no
  /// MetricReport event fires: these mirror service-internal state.
  void Refresh(std::string_view path);
  void RefreshAll();

 private:
  TelemetrySnapshot Collect(unsigned sources) const;
  Status Publish(const std::string& report_id, json::Json report);
  Status Store(const std::string& report_id, json::Json payload);

  redfish::ResourceTree& tree_;
  EventService& events_;
  SimClock& clock_;
  const TelemetrySources sources_;

  mutable std::mutex tenant_source_mu_;
  std::function<std::vector<qos::TenantStats>()> tenant_source_;

  // Last report published under each id, without timestamps. The mutex
  // also serializes the tree writes of quiet publishes.
  std::mutex publish_mu_;
  std::map<std::string, json::Json> published_;
};

}  // namespace ofmf::core
