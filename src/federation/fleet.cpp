#include "federation/fleet.hpp"

#include "ofmf/uris.hpp"

namespace ofmf::federation {
namespace {

/// A report body as the router serves it: no tree stamps @odata.id and
/// @odata.type on it, so they are prepended here.
json::Json Served(json::Json body) {
  json::Json doc = json::Json::Obj(
      {{"@odata.id", core::TelemetryService::ReportUri(body.GetString("Id"))},
       {"@odata.type", "#MetricReport.v1_4_2.MetricReport"}});
  for (json::Member& member : body.as_object()) {
    doc.as_object().Set(std::move(member.first), std::move(member.second));
  }
  return doc;
}

json::Json Ids(const std::vector<std::string>& ids) {
  return json::Json(json::Array(ids.begin(), ids.end()));
}

}  // namespace

void FleetMetrics::Absorb(const std::string& shard_id, const json::Json& dump) {
  Result<core::TelemetrySnapshot> snapshot = core::ParseDump(dump);
  if (!snapshot.ok()) return Omit(shard_id);
  shards_.push_back(shard_id);
  resilience_.emplace_back(shard_id, snapshot->resilience);
  merged_.Merge(*snapshot);
}

void FleetMetrics::Omit(const std::string& shard_id) { degraded_.push_back(shard_id); }

json::Json FleetMetrics::Report(const std::string& name) const {
  const core::ReportBuilder build = core::FindReportBuilder(name);
  if (build == nullptr) return json::Json();
  json::Json report = Served(build(merged_, core::ReportScope::kFleet));
  if (name == "Resilience") {
    json::Array shards;
    for (const auto& [shard_id, resilience] : resilience_) {
      json::Json entry = json::Json::Obj({{"ShardId", shard_id}});
      core::AppendResilienceSummary(entry.as_object(), resilience, /*with_counts=*/false);
      shards.push_back(std::move(entry));
    }
    core::OfmfOem(report).Set("Shards", json::Json(std::move(shards)));
  }
  if (!degraded_.empty()) core::OfmfOem(report).Set("DegradedShards", Ids(degraded_));
  return report;
}

json::Json FleetMetrics::ToJson() const {
  json::Json dump = core::RenderDump({"Shards", Ids(shards_)}, merged_);
  if (!degraded_.empty()) core::OfmfOem(dump).Set("DegradedShards", Ids(degraded_));
  return dump;
}

json::Json FleetHealthReport(const RoutingTable& table, const FleetHealthInputs& inputs) {
  json::Array values;
  const auto add = [&values](const std::string& id, double value, const std::string& property) {
    values.push_back(core::MetricEntry(id, value, property));
  };
  add("ShardsRegistered", static_cast<double>(table.shards.size()), "federation directory");
  add("ShardsAlive", static_cast<double>(table.AliveCount()), "federation directory");
  add("TableEpoch", static_cast<double>(table.epoch), "federation directory");
  add("DegradedResponses", static_cast<double>(inputs.degraded_responses),
      "router scatter-gather");
  add("MembersOmittedCount", static_cast<double>(inputs.members_omitted),
      "router scatter-gather");
  json::Array shards;
  for (const ShardInfo& shard : table.shards) {
    add("ShardAlive." + shard.id, shard.alive ? 1.0 : 0.0, shard.id);
    if (shard.heartbeat_age_ms >= 0) {
      add("HeartbeatAgeMs." + shard.id, static_cast<double>(shard.heartbeat_age_ms), shard.id);
    }
    json::Json entry = json::Json::Obj(
        {{"ShardId", shard.id},
         {"Alive", shard.alive},
         {"Port", static_cast<std::int64_t>(shard.port)},
         {"HeartbeatAgeMs", static_cast<std::int64_t>(shard.heartbeat_age_ms)}});
    if (shard.stats.is_object()) {
      entry.as_object().Set("Stats", shard.stats);
      add("BreakersOpen." + shard.id,
          static_cast<double>(shard.stats.GetInt("BreakersOpen", 0)), shard.id);
    }
    shards.push_back(std::move(entry));
  }
  json::Json report = Served(core::ReportBody(
      "FleetHealth", "Per-shard liveness and self-reported health", std::move(values)));
  core::OfmfOem(report).Set("Epoch", static_cast<std::int64_t>(table.epoch));
  core::OfmfOem(report).Set("Shards", json::Json(std::move(shards)));
  return report;
}

json::Json FleetTelemetryServiceDoc() {
  return json::Json::Obj(
      {{"@odata.id", "/redfish/v1/TelemetryService"},
       {"@odata.type", "#TelemetryService.v1_3_1.TelemetryService"},
       {"Id", "TelemetryService"},
       {"Name", "Fleet Telemetry Service"},
       {"ServiceEnabled", true},
       {"Oem", json::Json::Obj({{"Ofmf", json::Json::Obj({{"Fleet", true}})}})},
       {"MetricReports",
        json::Json::Obj({{"@odata.id", "/redfish/v1/TelemetryService/MetricReports"}})}});
}

const std::vector<std::string>& FleetReportNames() {
  static const std::vector<std::string> names = {
      "RequestLatency", "ResponseCache", "Resilience", "EventDelivery", "FleetHealth"};
  return names;
}

json::Json FleetMetricReportsDoc() {
  json::Array members;
  for (const std::string& name : FleetReportNames()) {
    members.push_back(json::Json::Obj(
        {{"@odata.id", "/redfish/v1/TelemetryService/MetricReports/" + name}}));
  }
  return json::Json::Obj(
      {{"@odata.id", "/redfish/v1/TelemetryService/MetricReports"},
       {"@odata.type", "#MetricReportCollection.MetricReportCollection"},
       {"Name", "Fleet Metric Reports"},
       {"Members@odata.count", static_cast<std::int64_t>(FleetReportNames().size())},
       {"Members", json::Json(std::move(members))}});
}

}  // namespace ofmf::federation
