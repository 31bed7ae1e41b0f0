#include "ofmf/telemetry.hpp"

#include <algorithm>
#include <optional>

#include "common/strings.hpp"
#include "ofmf/uris.hpp"

namespace ofmf::core {
namespace {

// Every scalar MetricsDump field as (section, name, field), one list shared
// by the renderer, the parser and the merge. `fn` gets the same field of
// every snapshot passed in. Totals add across shards; the delivery
// high-water marks take the larger value.
enum class Fold { kSum, kMax };
template <typename Fn, typename... S>
void ScalarFields(Fn&& fn, S&... s) {
  fn("Trace", "SampledTraces", Fold::kSum, s.trace.sampled_traces...);
  fn("Trace", "SkippedTraces", Fold::kSum, s.trace.skipped_traces...);
  fn("Trace", "SpansRecorded", Fold::kSum, s.trace.spans_recorded...);
  fn("Trace", "SpansEvicted", Fold::kSum, s.trace.spans_evicted...);
  fn("Trace", "SlowTraces", Fold::kSum, s.trace.slow_traces...);
  fn("Trace", "RetainedTraces", Fold::kSum, s.trace.retained_traces...);
  fn("ResponseCache", "Hits", Fold::kSum, s.cache.hits...);
  fn("ResponseCache", "Misses", Fold::kSum, s.cache.misses...);
  fn("ResponseCache", "Evictions", Fold::kSum, s.cache.evictions...);
  fn("ResponseCache", "Invalidations", Fold::kSum, s.cache.invalidations...);
  fn("EventDelivery", "Delivered", Fold::kSum, s.delivery.delivered...);
  fn("EventDelivery", "Batches", Fold::kSum, s.delivery.batches...);
  fn("EventDelivery", "Coalesced", Fold::kSum, s.delivery.coalesced...);
  fn("EventDelivery", "Dropped", Fold::kSum, s.delivery.dropped...);
  fn("EventDelivery", "Retries", Fold::kSum, s.delivery.retries...);
  fn("EventDelivery", "Failures", Fold::kSum, s.delivery.failures...);
  fn("EventDelivery", "QueuedEvents", Fold::kSum, s.delivery.total_queued...);
  fn("EventDelivery", "BreakersOpen", Fold::kSum, s.delivery.breakers_open...);
  fn("EventDelivery", "Streams", Fold::kSum, s.delivery.streams...);
  fn("EventDelivery", "LastSequence", Fold::kMax, s.delivery.last_sequence...);
  fn("EventDelivery", "MaxQueueDepth", Fold::kMax, s.delivery.max_queue_depth...);
  fn("EventDelivery", "MaxCursorLag", Fold::kMax, s.delivery.max_cursor_lag...);
}

template <typename Fn, typename Stats>
void BreakerCounts(Fn&& fn, Stats& stats) {
  fn("Successes", stats.successes);
  fn("Failures", stats.failures);
  fn("Rejected", stats.rejected);
  fn("Opens", stats.opens);
  fn("Closes", stats.closes);
}

/// A dump count: a missing member reads as 0; a negative or non-integer one
/// is invalid.
std::optional<std::uint64_t> Count(const json::Json& value) {
  if (value.is_null()) return 0;
  if (!value.is_int() || value.as_int() < 0) return std::nullopt;
  return static_cast<std::uint64_t>(value.as_int());
}

const json::Array& Items(const json::Json& value) {
  static const json::Array kNone;
  return value.is_array() ? value.as_array() : kNone;
}

/// Rebuilds a histogram from a dump entry; false when a bucket or the Sum is
/// invalid. The count is derived from the buckets (by Merge), never trusted
/// from the wire, so a merge of already-merged dumps stays self-consistent.
bool ParseHistogram(const json::Json& entry, metrics::Histogram::Snapshot* out) {
  const json::Json& buckets = entry.at("Buckets");
  const std::optional<std::uint64_t> sum = Count(entry.at("Sum"));
  if (!buckets.is_array() || !sum) return false;
  const std::size_t n =
      std::min<std::size_t>(buckets.as_array().size(), metrics::Histogram::kBuckets);
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<std::uint64_t> bucket = Count(buckets.as_array()[i]);
    if (!bucket) return false;
    out->buckets[i] = *bucket;
  }
  out->sum = *sum;
  return true;
}

std::uint64_t OpenBreakers(const ResilienceSnapshot& snapshot) {
  std::uint64_t open = 0;
  for (const auto& breaker : snapshot.breakers) open += breaker.state != BreakerState::kClosed;
  return open;
}

json::Json BreakerList(const ResilienceSnapshot& snapshot, bool with_counts) {
  json::Array list;
  for (const ResilienceSnapshot::FabricBreaker& breaker : snapshot.breakers) {
    json::Json entry = json::Json::Obj({{"FabricId", breaker.fabric_id},
                                        {"State", to_string(breaker.state)},
                                        {"Degraded", breaker.degraded}});
    if (with_counts) {
      BreakerCounts([&entry](const char* name, std::uint64_t count) {
        entry.as_object().Set(name, count);
      }, breaker.stats);
    }
    list.push_back(std::move(entry));
  }
  return json::Json(std::move(list));
}

/// Appends one MetricValues entry (counts convert to the double MetricValue).
void Add(json::Array& values, const std::string& id, double value,
         const std::string& property) {
  values.push_back(MetricEntry(id, value, property));
}

/// count, p50, p95, p99 (and mean) of one histogram. Latency series record
/// nanoseconds by convention and report milliseconds; size-valued series
/// (".records", ".bytes") pass through unscaled.
void AddHistogram(json::Array& values, const std::string& name,
                  const metrics::Histogram::Snapshot& snap, bool with_mean) {
  const bool is_ns =
      strings::EndsWith(name, ".ns") || strings::StartsWith(name, "http.latency.");
  const double scale = is_ns ? 1e-6 : 1.0;
  const std::string property = is_ns ? "milliseconds" : "units";
  Add(values, name + ".count", snap.count, "samples");
  Add(values, name + ".p50", snap.Percentile(0.50) * scale, property);
  Add(values, name + ".p95", snap.Percentile(0.95) * scale, property);
  Add(values, name + ".p99", snap.Percentile(0.99) * scale, property);
  if (with_mean) Add(values, name + ".mean", snap.mean() * scale, property);
}

// ------------------------------------------------------------- builders --

json::Json ResponseCacheReport(const TelemetrySnapshot& snapshot, ReportScope scope) {
  const bool fleet = scope == ReportScope::kFleet;
  const std::string property = fleet ? "fleet read path" : "/redfish/v1 read path";
  const redfish::ResponseCacheStats& cache = snapshot.cache;
  json::Array values;
  Add(values, "CacheHits", cache.hits, property);
  Add(values, "CacheMisses", cache.misses, property);
  Add(values, "CacheEvictions", cache.evictions, property);
  Add(values, "CacheInvalidations", cache.invalidations, property);
  Add(values, "CacheHitRate", cache.hit_rate(), property);
  return ReportBody("ResponseCache",
                    fleet ? "Fleet read-path response cache counters"
                          : "Read-path serialized-response cache counters",
                    std::move(values));
}

json::Json ResilienceReport(const TelemetrySnapshot& snapshot, ReportScope scope) {
  const bool fleet = scope == ReportScope::kFleet;
  const ResilienceSnapshot& resilience = snapshot.resilience;
  json::Array values;
  Add(values, "ReplayedPosts", resilience.replayed_posts, "idempotency replay cache");
  if (fleet) {
    Add(values, "BreakersOpen", OpenBreakers(resilience), "fleet breakers");
    Add(values, "BreakersTotal", resilience.breakers.size(), "fleet breakers");
  }
  for (const ResilienceSnapshot::FabricBreaker& breaker : resilience.breakers) {
    BreakerCounts([&](const char* name, std::uint64_t count) {
      Add(values, std::string("Breaker") + name + "." + breaker.fabric_id, count,
          FabricUri(breaker.fabric_id));
    }, breaker.stats);
  }
  json::Json report = ReportBody(
      "Resilience",
      fleet ? "Fleet circuit breaker and retry counters" : "Circuit breaker and retry counters",
      std::move(values));
  if (!fleet) {
    OfmfOem(report).Set("Breakers", BreakerList(resilience, false));
  }
  return report;
}

json::Json RequestLatencyReport(const TelemetrySnapshot& snapshot, ReportScope scope) {
  json::Array values;
  for (const auto& [name, snap] : snapshot.histograms) {
    AddHistogram(values, name, snap, /*with_mean=*/true);
  }
  for (const auto& [name, value] : snapshot.counters) Add(values, name, value, "count");
  return ReportBody("RequestLatency",
                    scope == ReportScope::kFleet
                        ? "Fleet request latency and stage-timing histograms"
                        : "Request latency and stage-timing histograms",
                    std::move(values));
}

json::Json EventDeliveryReport(const TelemetrySnapshot& snapshot, ReportScope scope) {
  const bool fleet = scope == ReportScope::kFleet;
  const DeliverySnapshot& delivery = snapshot.delivery;
  const std::string engine = fleet ? "fleet event delivery" : "event delivery engine";
  json::Array values;
  Add(values, "EventsDelivered", delivery.delivered, engine);
  Add(values, "DeliveryBatches", delivery.batches, engine);
  Add(values, "EventsCoalesced", delivery.coalesced, engine);
  Add(values, "EventsDropped", delivery.dropped, engine);
  Add(values, "DeliveryRetries", delivery.retries, engine);
  Add(values, "DeliveryFailures", delivery.failures, engine);
  Add(values, "QueuedEvents", delivery.total_queued, engine);
  Add(values, "MaxQueueDepth", delivery.max_queue_depth, engine);
  Add(values, "MaxCursorLag", delivery.max_cursor_lag, engine);
  Add(values, "BreakersOpen", delivery.breakers_open, engine);
  Add(values, "StreamSubscribers", delivery.streams, engine);
  json::Array subscribers;
  for (const SubscriberSnapshot& subscriber : delivery.subscribers) {
    const std::string& uri = subscriber.uri;
    Add(values, "QueueDepth." + uri, subscriber.queue_depth, uri);
    Add(values, "CursorLag." + uri, subscriber.cursor_lag, uri);
    Add(values, "Queued." + uri, subscriber.enqueued, uri);
    Add(values, "Delivered." + uri, subscriber.delivered, uri);
    Add(values, "Dropped." + uri, subscriber.dropped, uri);
    Add(values, "Retries." + uri, subscriber.retries, uri);
    Add(values, "BreakerOpen." + uri, subscriber.breaker_state == BreakerState::kClosed ? 0 : 1,
        uri);
    subscribers.push_back(json::Json::Obj(
        {{"Subscription", uri},
         {"Destination", subscriber.destination},
         {"Stream", subscriber.stream},
         {"QueueDepth", subscriber.queue_depth},
         {"Enqueued", subscriber.enqueued},
         {"Delivered", subscriber.delivered},
         {"Batches", subscriber.batches},
         {"Coalesced", subscriber.coalesced},
         {"Dropped", subscriber.dropped},
         {"Retries", subscriber.retries},
         {"Failures", subscriber.failures},
         {"AckedSequence", subscriber.acked_sequence},
         {"CursorLag", subscriber.cursor_lag},
         {"BreakerState", to_string(subscriber.breaker_state)},
         {"BreakerOpens", subscriber.breaker_stats.opens},
         {"BreakerCloses", subscriber.breaker_stats.closes},
         {"BreakerRejected", subscriber.breaker_stats.rejected}}));
  }
  json::Json report = ReportBody(
      "EventDelivery",
      fleet ? "Fleet event fan-out delivery state" : "Event fan-out delivery state",
      std::move(values));
  if (!fleet) {
    OfmfOem(report).Set("LastSequence", delivery.last_sequence);
    OfmfOem(report).Set("Subscribers", json::Json(std::move(subscribers)));
  }
  return report;
}

/// Shard only: scheduler counters come from the reactor that serves the
/// shard, so the router has no fleet TenantQoS report.
json::Json TenantQosReport(const TelemetrySnapshot& snapshot, ReportScope /*scope*/) {
  json::Array values;
  json::Array tenants;
  for (const qos::TenantStats& tenant : snapshot.tenants) {
    json::Json entry = json::Json::Obj({{"Tenant", tenant.id}, {"Weight", tenant.weight}});
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"QueueDepth", tenant.queued}, {"Admitted", tenant.admitted},
        {"Dispatched", tenant.dispatched}, {"RateLimited", tenant.rate_limited},
        {"QueueRejected", tenant.queue_rejected}};
    for (const auto& [name, value] : counts) {
      Add(values, std::string(name) + "." + tenant.id, value, tenant.id);
      entry.as_object().Set(name, value);
    }
    tenants.push_back(std::move(entry));
  }
  // Per-tenant latency lives in the shared registry under a fixed prefix so
  // the reactor never needs a back-pointer into telemetry.
  for (const auto& [name, snap] : snapshot.histograms) {
    if (strings::StartsWith(name, "http.tenant.")) {
      AddHistogram(values, name, snap, /*with_mean=*/false);
    }
  }
  json::Json report = ReportBody("TenantQoS", "Per-tenant fair-scheduling and admission state",
                                 std::move(values));
  OfmfOem(report).Set("Tenants", json::Json(std::move(tenants)));
  return report;
}

// What Collect reads. The registry source is the process-global histograms,
// counters and trace stats.
enum Source : unsigned {
  kRegistrySource = 1,
  kCacheSource = 2,
  kDeliverySource = 4,
  kResilienceSource = 8,
  kTenantSource = 16,
};

/// The service-internal reports, in refresh order: what each reads, and
/// how it is drawn.
struct ServiceReport {
  const char* id;
  unsigned sources;
  ReportBuilder build;
};
constexpr ServiceReport kServiceReports[] = {
    {"ResponseCache", kCacheSource, &ResponseCacheReport},
    {"Resilience", kResilienceSource, &ResilienceReport},
    {"RequestLatency", kRegistrySource, &RequestLatencyReport},
    {"EventDelivery", kDeliverySource, &EventDeliveryReport},
    {"TenantQoS", kRegistrySource | kTenantSource, &TenantQosReport},
};

}  // namespace

ReportBuilder FindReportBuilder(std::string_view report_id) {
  for (const ServiceReport& report : kServiceReports) {
    if (report_id == report.id) return report.build;
  }
  return nullptr;
}

json::Json ReportBody(const std::string& id, const std::string& name, json::Array values) {
  return json::Json::Obj({{"Id", id},
                          {"Name", name},
                          {"ReportSequence", 0},
                          {"MetricValues", json::Json(std::move(values))}});
}

json::Json MetricEntry(const std::string& id, double value, const std::string& property) {
  return json::Json::Obj(
      {{"MetricId", id}, {"MetricValue", value}, {"MetricProperty", property}});
}

json::Object& OfmfOem(json::Json& doc) {
  json::Json& oem = doc["Oem"];
  if (!oem.is_object()) oem = json::Json::MakeObject();
  json::Json& ofmf = oem["Ofmf"];
  if (!ofmf.is_object()) ofmf = json::Json::MakeObject();
  return ofmf.as_object();
}

void AppendResilienceSummary(json::Object& into, const ResilienceSnapshot& snapshot,
                             bool with_counts) {
  into.Set("BreakersOpen", OpenBreakers(snapshot));
  into.Set("BreakersTotal", snapshot.breakers.size());
  into.Set("ReplayedPosts", snapshot.replayed_posts);
  into.Set("Breakers", BreakerList(snapshot, with_counts));
}

// ------------------------------------------------------------ the dump --

void TelemetrySnapshot::Merge(const TelemetrySnapshot& other) {
  for (const auto& [name, snap] : other.histograms) histograms[name].Merge(snap);
  for (const auto& [name, value] : other.counters) counters[name] += value;
  ScalarFields([](const char*, const char*, Fold fold, auto& into, const auto& from) {
    into = fold == Fold::kMax ? std::max(into, from) : into + from;
  }, *this, other);
  resilience.breakers.insert(resilience.breakers.end(), other.resilience.breakers.begin(),
                             other.resilience.breakers.end());
  resilience.replayed_posts += other.resilience.replayed_posts;
}

json::Json RenderDump(json::Member head, const TelemetrySnapshot& snapshot) {
  json::Array histograms;
  for (const auto& [name, snap] : snapshot.histograms) {
    // Pre-sized assignment, not push_back: GCC 12's -Wmaybe-uninitialized
    // false-positives on vector relocation of the Json variant at -O2.
    json::Array buckets(snap.buckets.size());
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) buckets[i] = snap.buckets[i];
    histograms.push_back(json::Json::Obj({{"Name", name},
                                          {"Count", snap.count},
                                          {"Sum", snap.sum},
                                          {"Mean", snap.mean()},
                                          {"P50", snap.Percentile(0.50)},
                                          {"P95", snap.Percentile(0.95)},
                                          {"P99", snap.Percentile(0.99)},
                                          {"Buckets", json::Json(std::move(buckets))}}));
  }
  json::Array counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters.push_back(json::Json::Obj({{"Name", name}, {"Value", value}}));
  }
  json::Json dump = json::Json::Obj({std::move(head),
                                     {"Histograms", json::Json(std::move(histograms))},
                                     {"Counters", json::Json(std::move(counters))}});
  ScalarFields([&dump](const char* section, const char* name, Fold, std::uint64_t value) {
    json::Json& fields = dump[section];
    if (!fields.is_object()) fields = json::Json::MakeObject();
    fields.as_object().Set(name, value);
  }, snapshot);
  dump["ResponseCache"].as_object().Set("HitRate", snapshot.cache.hit_rate());
  json::Json& resilience = dump["Resilience"];
  resilience = json::Json::MakeObject();
  AppendResilienceSummary(resilience.as_object(), snapshot.resilience, /*with_counts=*/true);
  return dump;
}

Result<TelemetrySnapshot> ParseDump(const json::Json& dump) {
  if (!dump.is_object()) return Status::InvalidArgument("MetricsDump is not an object");
  TelemetrySnapshot snapshot;
  for (const json::Json& entry : Items(dump.at("Histograms"))) {
    const std::string name = entry.GetString("Name");
    metrics::Histogram::Snapshot snap;
    if (!name.empty() && ParseHistogram(entry, &snap)) snapshot.histograms[name].Merge(snap);
  }
  for (const json::Json& entry : Items(dump.at("Counters"))) {
    const std::string name = entry.GetString("Name");
    const std::optional<std::uint64_t> value = Count(entry.at("Value"));
    if (!name.empty() && value) snapshot.counters[name] += *value;
  }
  ScalarFields([&dump](const char* section, const char* name, Fold, auto& field) {
    field = Count(dump.at(section).at(name)).value_or(0);
  }, snapshot);
  const json::Json& resilience = dump.at("Resilience");
  snapshot.resilience.replayed_posts = Count(resilience.at("ReplayedPosts")).value_or(0);
  for (const json::Json& entry : Items(resilience.at("Breakers"))) {
    ResilienceSnapshot::FabricBreaker breaker;
    breaker.fabric_id = entry.GetString("FabricId");
    const std::string state = entry.GetString("State");
    for (BreakerState candidate :
         {BreakerState::kClosed, BreakerState::kOpen, BreakerState::kHalfOpen}) {
      if (state == to_string(candidate)) breaker.state = candidate;
    }
    breaker.degraded = entry.GetBool("Degraded");
    BreakerCounts([&entry](const char* name, std::uint64_t& count) {
      count = Count(entry.at(name)).value_or(0);
    }, breaker.stats);
    snapshot.resilience.breakers.push_back(std::move(breaker));
  }
  return snapshot;
}

// ---------------------------------------------------- TelemetryService --

TelemetryService::TelemetryService(redfish::ResourceTree& tree, EventService& events,
                                   SimClock& clock, TelemetrySources sources)
    : tree_(tree), events_(events), clock_(clock), sources_(std::move(sources)) {}

Status TelemetryService::Bootstrap() {
  OFMF_RETURN_IF_ERROR(tree_.Create(
      kTelemetryService, "#TelemetryService.v1_3_1.TelemetryService",
      json::Json::Obj(
          {{"Id", "TelemetryService"},
           {"Name", "Telemetry Service"},
           {"ServiceEnabled", true},
           {"MetricReports", json::Json::Obj({{"@odata.id", kMetricReports}})}})));
  return tree_.CreateCollection(
      kMetricReports, "#MetricReportCollection.MetricReportCollection", "Metric Reports");
}

std::string TelemetryService::ReportUri(std::string_view report_id) {
  return std::string(kMetricReports) + "/" + std::string(report_id);
}

Status TelemetryService::Store(const std::string& report_id, json::Json payload) {
  const std::string uri = ReportUri(report_id);
  if (tree_.Exists(uri)) return tree_.Replace(uri, std::move(payload));
  OFMF_RETURN_IF_ERROR(
      tree_.Create(uri, "#MetricReport.v1_4_2.MetricReport", std::move(payload)));
  return tree_.AddMember(kMetricReports, uri);
}

Status TelemetryService::PushReport(const std::string& report_id,
                                    const std::vector<MetricValue>& values) {
  if (report_id.empty()) return Status::InvalidArgument("report id must be non-empty");
  json::Array metric_values;
  for (const MetricValue& value : values) {
    json::Json entry = json::Json::Obj({{"MetricId", value.metric_id},
                                        {"MetricValue", value.value},
                                        {"Timestamp", FormatSimTimestamp(clock_.now())}});
    if (!value.property.empty()) {
      entry.as_object().Set("MetricProperty", value.property);
    }
    metric_values.push_back(std::move(entry));
  }
  OFMF_RETURN_IF_ERROR(Store(report_id, ReportBody(report_id, "Metric report " + report_id,
                                                   std::move(metric_values))));
  Event event;
  event.event_type = "MetricReport";
  event.message_id = "TelemetryService.1.0.MetricReportUpdated";
  event.message = "metric report " + report_id + " updated";
  event.origin = ReportUri(report_id);
  events_.Publish(event);
  return Status::Ok();
}

void TelemetryService::SetTenantQosSource(
    std::function<std::vector<qos::TenantStats>()> source) {
  std::lock_guard<std::mutex> lock(tenant_source_mu_);
  tenant_source_ = std::move(source);
}

TelemetrySnapshot TelemetryService::Collect() const { return Collect(~0u); }

TelemetrySnapshot TelemetryService::Collect(unsigned sources) const {
  TelemetrySnapshot snapshot;
  if (sources & kRegistrySource) {
    snapshot.histograms = metrics::Registry::instance().HistogramSnapshots();
    snapshot.counters = metrics::Registry::instance().CounterValues();
    snapshot.trace = trace::TraceRecorder::instance().stats();
  }
  if ((sources & kCacheSource) && sources_.cache) snapshot.cache = sources_.cache();
  if ((sources & kDeliverySource) && sources_.delivery) snapshot.delivery = sources_.delivery();
  if ((sources & kResilienceSource) && sources_.resilience) {
    snapshot.resilience = sources_.resilience();
  }
  if (sources & kTenantSource) {
    std::function<std::vector<qos::TenantStats>()> tenants;
    {
      std::lock_guard<std::mutex> lock(tenant_source_mu_);
      tenants = tenant_source_;
    }
    if (tenants) snapshot.tenants = tenants();
  }
  return snapshot;
}

Status TelemetryService::Publish(const std::string& report_id, json::Json report) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  json::Json& last = published_[report_id];
  if (last == report) return Status::Ok();
  json::Json stamped = report;
  const std::string timestamp = FormatSimTimestamp(clock_.now());
  for (json::Json& entry : stamped["MetricValues"].as_array()) {
    entry.as_object().Set("Timestamp", timestamp);
  }
  OFMF_RETURN_IF_ERROR(Store(report_id, std::move(stamped)));
  last = std::move(report);
  return Status::Ok();
}

void TelemetryService::Refresh(std::string_view path) {
  const std::string_view prefix = kMetricReports;
  if (!strings::StartsWith(path, prefix) || path.substr(prefix.size(), 1) != "/") return;
  for (const ServiceReport& report : kServiceReports) {
    if (path.substr(prefix.size() + 1) == report.id) {
      (void)Publish(report.id, report.build(Collect(report.sources), ReportScope::kShard));
      return;
    }
  }
}

void TelemetryService::RefreshAll() {
  const TelemetrySnapshot snapshot = Collect();
  for (const ServiceReport& report : kServiceReports) {
    (void)Publish(report.id, report.build(snapshot, ReportScope::kShard));
  }
}

Result<json::Json> TelemetryService::GetReport(const std::string& report_id) const {
  return tree_.Get(ReportUri(report_id));
}

std::vector<std::string> TelemetryService::ReportIds() const {
  std::vector<std::string> ids;
  for (const std::string& uri : tree_.UrisUnder(kMetricReports)) {
    if (uri == kMetricReports) continue;
    ids.push_back(uri.substr(std::string(kMetricReports).size() + 1));
  }
  return ids;
}

}  // namespace ofmf::core
