// Golden tests for the MetricReports. Every shard report and every gathered
// fleet report is built from fixed inputs and compared as a whole serialized
// document, with Timestamp members removed. Also pinned: an unchanged refresh
// leaves every report's ETag alone, and the fleet merge of two fixed
// MetricsDump documents.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "federation/fleet.hpp"
#include "json/parse.hpp"
#include "json/serialize.hpp"
#include "ofmf/events.hpp"
#include "ofmf/telemetry.hpp"
#include "ofmf/uris.hpp"
#include "redfish/tree.hpp"

namespace ofmf {
namespace {

using json::Json;

/// `doc` with every "Timestamp" member removed, at any depth.
Json WithoutTimestamps(Json doc) {
  if (doc.is_object()) {
    doc.as_object().Erase("Timestamp");
    for (json::Member& member : doc.as_object()) {
      member.second = WithoutTimestamps(std::move(member.second));
    }
  } else if (doc.is_array()) {
    for (Json& item : doc.as_array()) item = WithoutTimestamps(std::move(item));
  }
  return doc;
}

/// `report` keeping only the MetricValues whose MetricId contains `marker`:
/// the registry is process-global, so a test pins only its own series.
Json OnlyMetricsNamed(Json report, const std::string& marker) {
  json::Array kept;
  for (const Json& value : report.at("MetricValues").as_array()) {
    if (value.GetString("MetricId").find(marker) != std::string::npos) {
      kept.push_back(value);
    }
  }
  report.as_object().Set("MetricValues", Json(std::move(kept)));
  return report;
}

// ------------------------------------------------------------ shard side --

class ShardReportTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(telemetry_.Bootstrap().ok()); }

  // Input feeds: each publishes one report from the fixture's fixed state.
  void Refresh(const std::string& id) {
    telemetry_.Refresh(core::TelemetryService::ReportUri(id));
  }
  void FeedCache() { Refresh("ResponseCache"); }
  void FeedResilience() { Refresh("Resilience"); }
  void FeedDelivery() { Refresh("EventDelivery"); }
  void FeedLatency() { Refresh("RequestLatency"); }
  void FeedTenants() {
    telemetry_.SetTenantQosSource([this] { return tenants_; });
    Refresh("TenantQoS");
  }
  void FeedAll() {
    telemetry_.SetTenantQosSource([this] { return tenants_; });
    telemetry_.RefreshAll();
  }

  /// The stored report, Timestamps removed, serialized.
  std::string Report(const std::string& id) {
    auto raw = tree_.GetRaw(std::string(core::kMetricReports) + "/" + id);
    EXPECT_TRUE(raw.ok()) << id;
    return raw.ok() ? json::Serialize(WithoutTimestamps(std::move(raw.value()))) : "";
  }
  Json ReportJson(const std::string& id) { return *json::Parse(Report(id)); }

  void SetUpInputs() {
    cache_.hits = 90;
    cache_.misses = 10;
    cache_.evictions = 2;
    cache_.invalidations = 5;

    core::ResilienceSnapshot::FabricBreaker breaker;
    breaker.fabric_id = "IB";
    breaker.state = core::BreakerState::kOpen;
    breaker.stats.successes = 7;
    breaker.stats.failures = 4;
    breaker.stats.rejected = 2;
    breaker.stats.opens = 1;
    breaker.stats.closes = 0;
    breaker.degraded = true;
    resilience_.breakers = {breaker};
    resilience_.replayed_posts = 3;

    core::SubscriberSnapshot subscriber;
    subscriber.uri = "/redfish/v1/EventService/Subscriptions/1";
    subscriber.destination = "http://sink/events";
    subscriber.queue_depth = 2;
    subscriber.enqueued = 12;
    subscriber.delivered = 9;
    subscriber.batches = 4;
    subscriber.coalesced = 6;
    subscriber.dropped = 1;
    subscriber.retries = 3;
    subscriber.failures = 1;
    subscriber.acked_sequence = 10;
    subscriber.cursor_lag = 2;
    subscriber.breaker_state = core::BreakerState::kHalfOpen;
    subscriber.breaker_stats.opens = 1;
    subscriber.breaker_stats.closes = 0;
    subscriber.breaker_stats.rejected = 5;
    delivery_.subscribers = {subscriber};
    delivery_.last_sequence = 12;
    delivery_.total_queued = 2;
    delivery_.max_queue_depth = 2;
    delivery_.delivered = 9;
    delivery_.batches = 4;
    delivery_.coalesced = 6;
    delivery_.dropped = 1;
    delivery_.retries = 3;
    delivery_.failures = 1;
    delivery_.max_cursor_lag = 2;
    delivery_.breakers_open = 1;
    delivery_.streams = 0;

    qos::TenantStats gold;
    gold.id = "golden-gold";
    gold.weight = 4;
    gold.queued = 2;
    gold.admitted = 100;
    gold.dispatched = 98;
    gold.rate_limited = 1;
    gold.queue_rejected = 0;
    qos::TenantStats bronze;
    bronze.id = "golden-bronze";
    bronze.weight = 1;
    bronze.queued = 0;
    bronze.admitted = 20;
    bronze.dispatched = 20;
    bronze.rate_limited = 6;
    bronze.queue_rejected = 2;
    tenants_ = {gold, bronze};
  }

  redfish::ResourceTree tree_;
  SimClock clock_;
  core::EventService events_{tree_, clock_};
  core::TelemetryService telemetry_{tree_, events_, clock_,
                                    {[this] { return cache_; }, [this] { return delivery_; },
                                     [this] { return resilience_; }}};

  redfish::ResponseCacheStats cache_;
  core::ResilienceSnapshot resilience_;
  core::DeliverySnapshot delivery_;
  std::vector<qos::TenantStats> tenants_;
};

TEST_F(ShardReportTest, ResponseCacheReportShape) {
  SetUpInputs();
  FeedCache();
  EXPECT_EQ(Report("ResponseCache"),
            R"({"Id":"ResponseCache","Name":"Read-path serialized-response cache counters",)"
            R"("ReportSequence":0,"MetricValues":[)"
            R"({"MetricId":"CacheHits","MetricValue":90.0,)"
            R"("MetricProperty":"/redfish/v1 read path"},)"
            R"({"MetricId":"CacheMisses","MetricValue":10.0,)"
            R"("MetricProperty":"/redfish/v1 read path"},)"
            R"({"MetricId":"CacheEvictions","MetricValue":2.0,)"
            R"("MetricProperty":"/redfish/v1 read path"},)"
            R"({"MetricId":"CacheInvalidations","MetricValue":5.0,)"
            R"("MetricProperty":"/redfish/v1 read path"},)"
            R"({"MetricId":"CacheHitRate","MetricValue":0.9,)"
            R"("MetricProperty":"/redfish/v1 read path"}]})");
}

TEST_F(ShardReportTest, ResilienceReportShape) {
  SetUpInputs();
  FeedResilience();
  EXPECT_EQ(Report("Resilience"),
            R"({"Id":"Resilience","Name":"Circuit breaker and retry counters","ReportSequence":0,)"
            R"("MetricValues":[)"
            R"({"MetricId":"ReplayedPosts","MetricValue":3.0,)"
            R"("MetricProperty":"idempotency replay cache"},)"
            R"({"MetricId":"BreakerSuccesses.IB","MetricValue":7.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerFailures.IB","MetricValue":4.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerRejected.IB","MetricValue":2.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerOpens.IB","MetricValue":1.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerCloses.IB","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"}],"Oem":{"Ofmf":{"Breakers":[)"
            R"({"FabricId":"IB","State":"Open","Degraded":true}]}}})");
}

TEST_F(ShardReportTest, EventDeliveryReportShape) {
  SetUpInputs();
  FeedDelivery();
  EXPECT_EQ(Report("EventDelivery"),
            R"({"Id":"EventDelivery","Name":"Event fan-out delivery state","ReportSequence":0,)"
            R"("MetricValues":[)"
            R"({"MetricId":"EventsDelivered","MetricValue":9.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"DeliveryBatches","MetricValue":4.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"EventsCoalesced","MetricValue":6.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"EventsDropped","MetricValue":1.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"DeliveryRetries","MetricValue":3.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"DeliveryFailures","MetricValue":1.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"QueuedEvents","MetricValue":2.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"MaxQueueDepth","MetricValue":2.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"MaxCursorLag","MetricValue":2.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"BreakersOpen","MetricValue":1.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"StreamSubscribers","MetricValue":0.0,)"
            R"("MetricProperty":"event delivery engine"},)"
            R"({"MetricId":"QueueDepth./redfish/v1/EventService/Subscriptions/1",)"
            R"("MetricValue":2.0,"MetricProperty":"/redfish/v1/EventService/Subscriptions/1"},)"
            R"({"MetricId":"CursorLag./redfish/v1/EventService/Subscriptions/1",)"
            R"("MetricValue":2.0,"MetricProperty":"/redfish/v1/EventService/Subscriptions/1"},)"
            R"({"MetricId":"Queued./redfish/v1/EventService/Subscriptions/1","MetricValue":12.0,)"
            R"("MetricProperty":"/redfish/v1/EventService/Subscriptions/1"},)"
            R"({"MetricId":"Delivered./redfish/v1/EventService/Subscriptions/1",)"
            R"("MetricValue":9.0,"MetricProperty":"/redfish/v1/EventService/Subscriptions/1"},)"
            R"({"MetricId":"Dropped./redfish/v1/EventService/Subscriptions/1","MetricValue":1.0,)"
            R"("MetricProperty":"/redfish/v1/EventService/Subscriptions/1"},)"
            R"({"MetricId":"Retries./redfish/v1/EventService/Subscriptions/1","MetricValue":3.0,)"
            R"("MetricProperty":"/redfish/v1/EventService/Subscriptions/1"},)"
            R"({"MetricId":"BreakerOpen./redfish/v1/EventService/Subscriptions/1",)"
            R"("MetricValue":1.0,"MetricProperty":"/redfish/v1/EventService/Subscriptions/1"}],)"
            R"("Oem":{"Ofmf":{"LastSequence":12,"Subscribers":[)"
            R"({"Subscription":"/redfish/v1/EventService/Subscriptions/1",)"
            R"("Destination":"http://sink/events","Stream":false,"QueueDepth":2,"Enqueued":12,)"
            R"("Delivered":9,"Batches":4,"Coalesced":6,"Dropped":1,"Retries":3,"Failures":1,)"
            R"("AckedSequence":10,"CursorLag":2,"BreakerState":"HalfOpen","BreakerOpens":1,)"
            R"("BreakerCloses":0,"BreakerRejected":5}]}}})");
}

TEST_F(ShardReportTest, RequestLatencyReportShape) {
  metrics::Registry& registry = metrics::Registry::instance();
  for (std::uint64_t ns : {1000u, 2000u, 4000u, 1000000u}) {
    registry.histogram("golden.latency.stage.ns").Record(ns);
  }
  for (std::uint64_t records : {3u, 5u}) {
    registry.histogram("golden.latency.batch.records").Record(records);
  }
  registry.counter("golden.latency.retries").Increment(7);
  FeedLatency();
  EXPECT_EQ(json::Serialize(OnlyMetricsNamed(ReportJson("RequestLatency"), "golden.latency.")),
            R"({"Id":"RequestLatency","Name":"Request latency and stage-timing histograms",)"
            R"("ReportSequence":0,"MetricValues":[)"
            R"({"MetricId":"golden.latency.batch.records.count","MetricValue":2.0,)"
            R"("MetricProperty":"samples"},)"
            R"({"MetricId":"golden.latency.batch.records.p50","MetricValue":4.0,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"golden.latency.batch.records.p95","MetricValue":7.6,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"golden.latency.batch.records.p99","MetricValue":7.92,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"golden.latency.batch.records.mean","MetricValue":4.0,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"golden.latency.stage.ns.count","MetricValue":4.0,)"
            R"("MetricProperty":"samples"},)"
            R"({"MetricId":"golden.latency.stage.ns.p50","MetricValue":0.002048,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"golden.latency.stage.ns.p95","MetricValue":0.9437183999999998,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"golden.latency.stage.ns.p99","MetricValue":1.02760448,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"golden.latency.stage.ns.mean","MetricValue":0.25175,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"golden.latency.retries","MetricValue":7.0,)"
            R"("MetricProperty":"count"}]})");
}

TEST_F(ShardReportTest, TenantQosReportShape) {
  SetUpInputs();
  for (std::uint64_t ns : {50000u, 70000u, 300000u}) {
    metrics::Registry::instance().histogram("http.tenant.golden-gold.latency.ns").Record(ns);
  }
  FeedTenants();
  EXPECT_EQ(json::Serialize(OnlyMetricsNamed(ReportJson("TenantQoS"), "golden-")),
            R"({"Id":"TenantQoS","Name":"Per-tenant fair-scheduling and admission state",)"
            R"("ReportSequence":0,"MetricValues":[)"
            R"({"MetricId":"QueueDepth.golden-gold","MetricValue":2.0,)"
            R"("MetricProperty":"golden-gold"},)"
            R"({"MetricId":"Admitted.golden-gold","MetricValue":100.0,)"
            R"("MetricProperty":"golden-gold"},)"
            R"({"MetricId":"Dispatched.golden-gold","MetricValue":98.0,)"
            R"("MetricProperty":"golden-gold"},)"
            R"({"MetricId":"RateLimited.golden-gold","MetricValue":1.0,)"
            R"("MetricProperty":"golden-gold"},)"
            R"({"MetricId":"QueueRejected.golden-gold","MetricValue":0.0,)"
            R"("MetricProperty":"golden-gold"},)"
            R"({"MetricId":"QueueDepth.golden-bronze","MetricValue":0.0,)"
            R"("MetricProperty":"golden-bronze"},)"
            R"({"MetricId":"Admitted.golden-bronze","MetricValue":20.0,)"
            R"("MetricProperty":"golden-bronze"},)"
            R"({"MetricId":"Dispatched.golden-bronze","MetricValue":20.0,)"
            R"("MetricProperty":"golden-bronze"},)"
            R"({"MetricId":"RateLimited.golden-bronze","MetricValue":6.0,)"
            R"("MetricProperty":"golden-bronze"},)"
            R"({"MetricId":"QueueRejected.golden-bronze","MetricValue":2.0,)"
            R"("MetricProperty":"golden-bronze"},)"
            R"({"MetricId":"http.tenant.golden-gold.latency.ns.count","MetricValue":3.0,)"
            R"("MetricProperty":"samples"},)"
            R"({"MetricId":"http.tenant.golden-gold.latency.ns.p50","MetricValue":0.098304,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"http.tenant.golden-gold.latency.ns.p95",)"
            R"("MetricValue":0.4849663999999999,"MetricProperty":"milliseconds"},)"
            R"({"MetricId":"http.tenant.golden-gold.latency.ns.p99",)"
            R"("MetricValue":0.5164236799999999,"MetricProperty":"milliseconds"}],)"
            R"("Oem":{"Ofmf":{"Tenants":[)"
            R"({"Tenant":"golden-gold","Weight":4,"QueueDepth":2,"Admitted":100,"Dispatched":98,)"
            R"("RateLimited":1,"QueueRejected":0},)"
            R"({"Tenant":"golden-bronze","Weight":1,"QueueDepth":0,"Admitted":20,"Dispatched":20,)"
            R"("RateLimited":6,"QueueRejected":2}]}}})");
}

TEST_F(ShardReportTest, UnchangedInputsLeaveEveryETagAlone) {
  SetUpInputs();
  metrics::Registry::instance().histogram("golden.quiet.ns").Record(1234);
  FeedAll();
  const std::vector<std::string> ids = {"ResponseCache", "Resilience", "EventDelivery",
                                        "RequestLatency", "TenantQoS"};
  std::vector<std::string> etags;
  for (const std::string& id : ids) {
    etags.push_back(tree_.ETagOf(std::string(core::kMetricReports) + "/" + id));
    EXPECT_FALSE(etags.back().empty()) << id;
  }
  clock_.Advance(5000);  // a later refresh stamps a later time, but values hold
  FeedAll();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(tree_.ETagOf(std::string(core::kMetricReports) + "/" + ids[i]), etags[i])
        << ids[i];
  }
  // A moved value republishes.
  cache_.hits += 1;
  FeedCache();
  EXPECT_NE(tree_.ETagOf(std::string(core::kMetricReports) + "/ResponseCache"), etags[0]);
}

// ------------------------------------------------------------ fleet side --

// Two fixed shard MetricsDump documents, in the shape a shard renders.
constexpr const char* kDumpS1 = R"({
  "ShardId": "s1",
  "Histograms": [
    {"Name": "compose.claim.ns", "Count": 3, "Sum": 5000, "Mean": 1666.7,
     "P50": 1500.0, "P95": 3000.0, "P99": 3000.0,
     "Buckets": [0,0,0,0,0,0,0,0,0,0,0,2,1]},
    {"Name": "journal.batch.records", "Count": 4, "Sum": 20, "Mean": 5.0,
     "P50": 5.0, "P95": 7.0, "P99": 7.0, "Buckets": [0,0,0,4]}
  ],
  "Counters": [{"Name": "federation.claims", "Value": 5},
               {"Name": "s1.only", "Value": 2}],
  "Trace": {"SampledTraces": 2, "SkippedTraces": 10, "SpansRecorded": 30,
            "SpansEvicted": 1, "SlowTraces": 0, "RetainedTraces": 1},
  "ResponseCache": {"Hits": 90, "Misses": 10, "Evictions": 1, "Invalidations": 4,
                    "HitRate": 0.9},
  "EventDelivery": {"Delivered": 12, "Batches": 6, "Coalesced": 8, "Dropped": 1,
                    "Retries": 2, "Failures": 0, "QueuedEvents": 3, "BreakersOpen": 0,
                    "Streams": 1, "LastSequence": 15},
  "Resilience": {"BreakersOpen": 1, "BreakersTotal": 2,
                 "Breakers": [{"FabricId": "IB", "State": "Open", "Degraded": true},
                              {"FabricId": "NVMeoF", "State": "Closed", "Degraded": false}],
                 "ReplayedPosts": 1, "CacheHitRate": 0.9}
})";

constexpr const char* kDumpS2 = R"({
  "ShardId": "s2",
  "Histograms": [
    {"Name": "compose.claim.ns", "Count": 2, "Sum": 9000, "Mean": 4500.0,
     "P50": 3000.0, "P95": 6000.0, "P99": 6000.0,
     "Buckets": [0,0,0,0,0,0,0,0,0,0,0,0,1,1]}
  ],
  "Counters": [{"Name": "federation.claims", "Value": 3},
               {"Name": "s2.only", "Value": 1}],
  "Trace": {"SampledTraces": 1, "SkippedTraces": 4, "SpansRecorded": 12,
            "SpansEvicted": 0, "SlowTraces": 1, "RetainedTraces": 1},
  "ResponseCache": {"Hits": 30, "Misses": 20, "Evictions": 0, "Invalidations": 2,
                    "HitRate": 0.6},
  "EventDelivery": {"Delivered": 5, "Batches": 5, "Coalesced": 0, "Dropped": 0,
                    "Retries": 1, "Failures": 1, "QueuedEvents": 0, "BreakersOpen": 1,
                    "Streams": 0, "LastSequence": 6},
  "Resilience": {"BreakersOpen": 0, "BreakersTotal": 1,
                 "Breakers": [{"FabricId": "CXL", "State": "Closed", "Degraded": false}],
                 "ReplayedPosts": 2, "CacheHitRate": 0.6}
})";

class FleetReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fleet_.Absorb("s1", *json::Parse(kDumpS1));
    fleet_.Absorb("s2", *json::Parse(kDumpS2));
  }
  federation::FleetMetrics fleet_;
};

TEST_F(FleetReportTest, RequestLatencyReportShape) {
  EXPECT_EQ(json::Serialize(fleet_.Report("RequestLatency")),
            R"({"@odata.id":"/redfish/v1/TelemetryService/MetricReports/RequestLatency",)"
            R"("@odata.type":"#MetricReport.v1_4_2.MetricReport","Id":"RequestLatency",)"
            R"("Name":"Fleet request latency and stage-timing histograms","ReportSequence":0,)"
            R"("MetricValues":[)"
            R"({"MetricId":"compose.claim.ns.count","MetricValue":5.0,)"
            R"("MetricProperty":"samples"},)"
            R"({"MetricId":"compose.claim.ns.p50","MetricValue":0.0025599999999999998,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"compose.claim.ns.p95","MetricValue":0.007168,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"compose.claim.ns.p99","MetricValue":0.0079872,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"compose.claim.ns.mean","MetricValue":0.0028,)"
            R"("MetricProperty":"milliseconds"},)"
            R"({"MetricId":"journal.batch.records.count","MetricValue":4.0,)"
            R"("MetricProperty":"samples"},)"
            R"({"MetricId":"journal.batch.records.p50","MetricValue":6.0,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"journal.batch.records.p95","MetricValue":7.8,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"journal.batch.records.p99","MetricValue":7.96,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"journal.batch.records.mean","MetricValue":5.0,)"
            R"("MetricProperty":"units"},)"
            R"({"MetricId":"federation.claims","MetricValue":8.0,"MetricProperty":"count"},)"
            R"({"MetricId":"s1.only","MetricValue":2.0,"MetricProperty":"count"},)"
            R"({"MetricId":"s2.only","MetricValue":1.0,"MetricProperty":"count"}]})");
}

TEST_F(FleetReportTest, ResponseCacheReportShape) {
  EXPECT_EQ(json::Serialize(fleet_.Report("ResponseCache")),
            R"({"@odata.id":"/redfish/v1/TelemetryService/MetricReports/ResponseCache",)"
            R"("@odata.type":"#MetricReport.v1_4_2.MetricReport","Id":"ResponseCache",)"
            R"("Name":"Fleet read-path response cache counters","ReportSequence":0,)"
            R"("MetricValues":[)"
            R"({"MetricId":"CacheHits","MetricValue":120.0,"MetricProperty":"fleet read path"},)"
            R"({"MetricId":"CacheMisses","MetricValue":30.0,"MetricProperty":"fleet read path"},)"
            R"({"MetricId":"CacheEvictions","MetricValue":1.0,)"
            R"("MetricProperty":"fleet read path"},)"
            R"({"MetricId":"CacheInvalidations","MetricValue":6.0,)"
            R"("MetricProperty":"fleet read path"},)"
            R"({"MetricId":"CacheHitRate","MetricValue":0.8,)"
            R"("MetricProperty":"fleet read path"}]})");
}

TEST_F(FleetReportTest, ResilienceReportShape) {
  EXPECT_EQ(json::Serialize(fleet_.Report("Resilience")),
            R"({"@odata.id":"/redfish/v1/TelemetryService/MetricReports/Resilience",)"
            R"("@odata.type":"#MetricReport.v1_4_2.MetricReport","Id":"Resilience",)"
            R"("Name":"Fleet circuit breaker and retry counters","ReportSequence":0,)"
            R"("MetricValues":[)"
            R"({"MetricId":"ReplayedPosts","MetricValue":3.0,)"
            R"("MetricProperty":"idempotency replay cache"},)"
            R"({"MetricId":"BreakersOpen","MetricValue":1.0,"MetricProperty":"fleet breakers"},)"
            R"({"MetricId":"BreakersTotal","MetricValue":3.0,"MetricProperty":"fleet breakers"},)"
            R"({"MetricId":"BreakerSuccesses.IB","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerFailures.IB","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerRejected.IB","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerOpens.IB","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerCloses.IB","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/IB"},)"
            R"({"MetricId":"BreakerSuccesses.NVMeoF","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/NVMeoF"},)"
            R"({"MetricId":"BreakerFailures.NVMeoF","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/NVMeoF"},)"
            R"({"MetricId":"BreakerRejected.NVMeoF","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/NVMeoF"},)"
            R"({"MetricId":"BreakerOpens.NVMeoF","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/NVMeoF"},)"
            R"({"MetricId":"BreakerCloses.NVMeoF","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/NVMeoF"},)"
            R"({"MetricId":"BreakerSuccesses.CXL","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/CXL"},)"
            R"({"MetricId":"BreakerFailures.CXL","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/CXL"},)"
            R"({"MetricId":"BreakerRejected.CXL","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/CXL"},)"
            R"({"MetricId":"BreakerOpens.CXL","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/CXL"},)"
            R"({"MetricId":"BreakerCloses.CXL","MetricValue":0.0,)"
            R"("MetricProperty":"/redfish/v1/Fabrics/CXL"}],"Oem":{"Ofmf":{"Shards":[)"
            R"({"ShardId":"s1","BreakersOpen":1,"BreakersTotal":2,"ReplayedPosts":1,"Breakers":[)"
            R"({"FabricId":"IB","State":"Open","Degraded":true},)"
            R"({"FabricId":"NVMeoF","State":"Closed","Degraded":false}]},)"
            R"({"ShardId":"s2","BreakersOpen":0,"BreakersTotal":1,"ReplayedPosts":2,"Breakers":[)"
            R"({"FabricId":"CXL","State":"Closed","Degraded":false}]}]}}})");
}

TEST_F(FleetReportTest, EventDeliveryReportShape) {
  EXPECT_EQ(json::Serialize(fleet_.Report("EventDelivery")),
            R"({"@odata.id":"/redfish/v1/TelemetryService/MetricReports/EventDelivery",)"
            R"("@odata.type":"#MetricReport.v1_4_2.MetricReport","Id":"EventDelivery",)"
            R"("Name":"Fleet event fan-out delivery state","ReportSequence":0,"MetricValues":[)"
            R"({"MetricId":"EventsDelivered","MetricValue":17.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"DeliveryBatches","MetricValue":11.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"EventsCoalesced","MetricValue":8.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"EventsDropped","MetricValue":1.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"DeliveryRetries","MetricValue":3.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"DeliveryFailures","MetricValue":1.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"QueuedEvents","MetricValue":3.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"MaxQueueDepth","MetricValue":0.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"MaxCursorLag","MetricValue":0.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"BreakersOpen","MetricValue":1.0,)"
            R"("MetricProperty":"fleet event delivery"},)"
            R"({"MetricId":"StreamSubscribers","MetricValue":1.0,)"
            R"("MetricProperty":"fleet event delivery"}]})");
}

TEST_F(FleetReportTest, MergedDumpShape) {
  EXPECT_EQ(json::Serialize(fleet_.ToJson()),
            R"({"Shards":["s1","s2"],"Histograms":[)"
            R"({"Name":"compose.claim.ns","Count":5,"Sum":14000,"Mean":2800.0,"P50":2560.0,)"
            R"("P95":7168.0,"P99":7987.200000000001,"Buckets":[)"
            R"(0,0,0,0,0,0,0,0,0,0,0,2,2,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},)"
            R"({"Name":"journal.batch.records","Count":4,"Sum":20,"Mean":5.0,"P50":6.0,"P95":7.8,)"
            R"("P99":7.96,"Buckets":[)"
            R"(0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}],)"
            R"("Counters":[{"Name":"federation.claims","Value":8},{"Name":"s1.only","Value":2},)"
            R"({"Name":"s2.only","Value":1}],"Trace":{"SampledTraces":3,"SkippedTraces":14,)"
            R"("SpansRecorded":42,"SpansEvicted":1,"SlowTraces":1,"RetainedTraces":2},)"
            R"("ResponseCache":{"Hits":120,"Misses":30,"Evictions":1,"Invalidations":6,)"
            R"("HitRate":0.8},)"
            R"("EventDelivery":{"Delivered":17,"Batches":11,"Coalesced":8,"Dropped":1,)"
            R"("Retries":3,"Failures":1,"QueuedEvents":3,"BreakersOpen":1,"Streams":1,)"
            R"("LastSequence":15,"MaxQueueDepth":0,"MaxCursorLag":0},)"
            R"("Resilience":{"BreakersOpen":1,"BreakersTotal":3,"ReplayedPosts":3,"Breakers":[)"
            R"({"FabricId":"IB","State":"Open","Degraded":true,"Successes":0,"Failures":0,)"
            R"("Rejected":0,"Opens":0,"Closes":0},)"
            R"({"FabricId":"NVMeoF","State":"Closed","Degraded":false,"Successes":0,"Failures":0,)"
            R"("Rejected":0,"Opens":0,"Closes":0},)"
            R"({"FabricId":"CXL","State":"Closed","Degraded":false,"Successes":0,"Failures":0,)"
            R"("Rejected":0,"Opens":0,"Closes":0}]}})");
}

// A shard dump with negative or non-integer values must not wrap the fleet
// totals: each such entry is skipped, so the fleet equals the healthy shard.
TEST(FleetDumpParseTest, NegativeAndNonIntegerEntriesAreSkipped) {
  const Json healthy = *json::Parse(R"({
    "Histograms": [{"Name": "compose.claim.ns", "Sum": 3000, "Buckets": [0,0,0,0,0,0,0,0,0,0,0,2]}],
    "Counters": [{"Name": "c", "Value": 5}],
    "ResponseCache": {"Hits": 4, "Misses": 1},
    "EventDelivery": {"Delivered": 2, "MaxQueueDepth": 3}})");
  const Json hostile = *json::Parse(R"({
    "Histograms": [
      {"Name": "compose.claim.ns", "Sum": 10, "Buckets": [0,0,0,-4]},
      {"Name": "compose.claim.ns", "Sum": -1, "Buckets": [0,0,1]},
      {"Name": "compose.claim.ns", "Sum": 10, "Buckets": [0,0,1.5]}],
    "Counters": [{"Name": "c", "Value": -6}, {"Name": "c", "Value": 2.5},
                 {"Name": "c", "Value": "7"}],
    "ResponseCache": {"Hits": -3, "Misses": 0.5},
    "EventDelivery": {"Delivered": -1, "MaxQueueDepth": -9}})");
  federation::FleetMetrics alone;
  alone.Absorb("s1", healthy);
  federation::FleetMetrics mixed;
  mixed.Absorb("s1", healthy);
  mixed.Absorb("s2", hostile);

  Json merged = mixed.ToJson();
  EXPECT_EQ(json::Serialize(merged.at("Shards")), R"(["s1","s2"])");
  EXPECT_EQ(json::Serialize(merged.at("Counters")), R"([{"Name":"c","Value":5}])");
  EXPECT_EQ(merged.at("Histograms").as_array()[0].GetInt("Count"), 2);
  for (const char* report : {"RequestLatency", "ResponseCache", "EventDelivery"}) {
    EXPECT_EQ(json::Serialize(mixed.Report(report)), json::Serialize(alone.Report(report)))
        << report;
  }
  Json expected = alone.ToJson();
  merged.as_object().Erase("Shards");
  expected.as_object().Erase("Shards");
  EXPECT_EQ(json::Serialize(merged), json::Serialize(expected));
}

// The dump renderer and parser agree: whatever a shard renders reads back
// to the same snapshot, and merging takes the larger high-water mark.
TEST(FleetDumpParseTest, RenderedDumpParsesBackAndMaximaMergeByMax) {
  core::TelemetrySnapshot snapshot;
  snapshot.histograms["golden.roundtrip.ns"].Merge([] {
    metrics::Histogram::Snapshot snap;
    snap.buckets[12] = 3;
    snap.sum = 9000;
    return snap;
  }());
  snapshot.counters["golden.roundtrip"] = 4;
  snapshot.trace.sampled_traces = 2;
  snapshot.trace.spans_evicted = 5;
  snapshot.cache.hits = 8;
  snapshot.delivery.delivered = 6;
  snapshot.delivery.max_queue_depth = 3;
  snapshot.delivery.last_sequence = 40;
  core::ResilienceSnapshot::FabricBreaker breaker;
  breaker.fabric_id = "IB";
  breaker.state = core::BreakerState::kHalfOpen;
  breaker.stats.failures = 9;
  breaker.stats.opens = 2;
  breaker.degraded = true;
  snapshot.resilience.breakers = {breaker};
  snapshot.resilience.replayed_posts = 1;

  const Json dump = core::RenderDump({"ShardId", "s1"}, snapshot);
  const Result<core::TelemetrySnapshot> parsed = core::ParseDump(dump);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(json::Serialize(core::RenderDump({"ShardId", "s1"}, *parsed)),
            json::Serialize(dump));
  EXPECT_FALSE(core::ParseDump(Json::Arr({1, 2})).ok());

  core::TelemetrySnapshot other;
  other.delivery.max_queue_depth = 7;
  other.delivery.max_cursor_lag = 1;
  other.delivery.last_sequence = 12;
  other.delivery.delivered = 1;
  core::TelemetrySnapshot merged = *parsed;
  merged.Merge(other);
  EXPECT_EQ(merged.delivery.max_queue_depth, 7u);
  EXPECT_EQ(merged.delivery.max_cursor_lag, 1u);
  EXPECT_EQ(merged.delivery.last_sequence, 40u);
  EXPECT_EQ(merged.delivery.delivered, 7u);
}

}  // namespace
}  // namespace ofmf
