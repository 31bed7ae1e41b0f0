// Fleet telemetry for the federation router. Shards expose a one-shot
// MetricsDump; the router scatter-gathers those dumps, and FleetMetrics
// parses and merges them into one core::TelemetrySnapshot (histograms merge
// bucket-wise, so fleet percentiles are recomputed from the merged buckets;
// counters add; high-water marks take the max). The gathered reports are the
// shard report builders' fleet projections of that snapshot, so a fleet
// report and the shard report of the same name share Id, MetricIds and
// values. A shard that contributed no dump is named in
// Oem.Ofmf.DegradedShards on every gathered document rather than silently
// shrinking the totals. FleetHealth and the TelemetryService documents come
// from the routing table (the router has no ResourceTree of its own).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "federation/routing.hpp"
#include "json/value.hpp"
#include "ofmf/telemetry.hpp"

namespace ofmf::federation {

/// Accumulator over per-shard MetricsDump documents.
class FleetMetrics {
 public:
  /// Folds one shard's MetricsDump in; a dump that does not parse lists the
  /// shard as degraded instead.
  void Absorb(const std::string& shard_id, const json::Json& dump);
  /// Lists a shard that contributed no dump (down, unreachable, or failed).
  void Omit(const std::string& shard_id);

  /// The gathered report `name` (RequestLatency, ResponseCache, Resilience or
  /// EventDelivery) as the router serves it. Resilience keeps each shard's
  /// breakers apart in Oem.Ofmf.Shards.
  json::Json Report(const std::string& name) const;

  /// Merged dump: a shard MetricsDump's sections behind "Shards".
  json::Json ToJson() const;

 private:
  std::vector<std::string> shards_;
  std::vector<std::string> degraded_;
  core::TelemetrySnapshot merged_;
  std::vector<std::pair<std::string, core::ResilienceSnapshot>> resilience_;
};

/// Router-side inputs to the FleetHealth report that no shard can see.
struct FleetHealthInputs {
  std::uint64_t degraded_responses = 0;  // scatter-gathers that omitted shards
  std::uint64_t members_omitted = 0;     // members those responses lost
};

/// Per-shard liveness / heartbeat age / self-reported breaker state from the
/// routing table, plus the router's own degradation counters.
json::Json FleetHealthReport(const RoutingTable& table, const FleetHealthInputs& inputs);

/// The TelemetryService + MetricReports collection documents the router
/// serves at /redfish/v1/TelemetryService[/MetricReports].
json::Json FleetTelemetryServiceDoc();
json::Json FleetMetricReportsDoc();

/// Names of the fleet reports, in collection order.
const std::vector<std::string>& FleetReportNames();

}  // namespace ofmf::federation
