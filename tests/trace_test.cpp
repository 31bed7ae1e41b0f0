// Observability suite: the span recorder's id/ring/sampling mechanics, the
// sharded histograms, trace propagation across the client/server/journal
// layers (including one connected tree when every retry fails), the
// ETag-stable MetricReports scrape, and thread-safety of concurrent
// recording + scraping (run under TSan in CI).
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agents/ib_agent.hpp"
#include "common/faults.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "composability/client.hpp"
#include "composability/manager.hpp"
#include "http/resilience.hpp"
#include "http/server.hpp"
#include "json/parse.hpp"
#include "ofmf/service.hpp"
#include "ofmf/telemetry.hpp"
#include "ofmf/uris.hpp"
#include "store/store.hpp"

namespace ofmf {
namespace {

using json::Json;
using ::testing::HasSubstr;

/// Recorder and registry are process globals; every test starts from a known
/// state and leaves sampling off so unrelated suites stay uninstrumented.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetObservability(); }
  void TearDown() override { ResetObservability(); }

  static void ResetObservability() {
    trace::TraceRecorder::instance().set_sampling(0.0);
    trace::TraceRecorder::instance().set_slow_threshold_ns(0);
    trace::TraceRecorder::instance().set_retain_threshold_ns(0);
    trace::TraceRecorder::instance().Clear();
  }

  /// Groups the ring by trace id.
  static std::map<std::uint64_t, std::vector<trace::SpanRecord>> ByTrace() {
    std::map<std::uint64_t, std::vector<trace::SpanRecord>> traces;
    for (trace::SpanRecord& span : trace::TraceRecorder::instance().Snapshot()) {
      traces[span.trace_id].push_back(std::move(span));
    }
    return traces;
  }

  static std::set<std::string> Names(const std::vector<trace::SpanRecord>& spans) {
    std::set<std::string> names;
    for (const trace::SpanRecord& span : spans) names.insert(span.name);
    return names;
  }

  static int CountNamed(const std::vector<trace::SpanRecord>& spans,
                        const std::string& name) {
    int count = 0;
    for (const trace::SpanRecord& span : spans) {
      if (span.name == name) ++count;
    }
    return count;
  }

  /// One connected tree: exactly one root, and every other span's parent is
  /// a recorded span of the same trace.
  static void ExpectConnectedTree(const std::vector<trace::SpanRecord>& spans) {
    std::set<std::uint64_t> ids;
    for (const trace::SpanRecord& span : spans) ids.insert(span.span_id);
    int roots = 0;
    for (const trace::SpanRecord& span : spans) {
      if (span.parent_span_id == 0) {
        ++roots;
      } else {
        EXPECT_EQ(ids.count(span.parent_span_id), 1u)
            << span.name << " has a dangling parent";
      }
    }
    EXPECT_EQ(roots, 1) << "trace must have exactly one root";
  }
};

TEST_F(TraceTest, IdsAreNonZeroDistinctAndHexRoundTrips) {
  const std::uint64_t a = trace::NewId();
  const std::uint64_t b = trace::NewId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);

  const std::string hex = trace::IdToHex(a);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(trace::HexToId(hex), a);

  // Anything that does not parse means "no trace", never a crash.
  EXPECT_EQ(trace::HexToId(""), 0u);
  EXPECT_EQ(trace::HexToId("not-hex-at-all"), 0u);
  EXPECT_EQ(trace::HexToId("12345"), 0u);  // wrong length
}

TEST_F(TraceTest, SpansAreNoopsWhenSamplingIsOff) {
  const trace::TraceStats before = trace::TraceRecorder::instance().stats();

  trace::Span root("unsampled.root", trace::TraceContext{});
  EXPECT_FALSE(root.active());
  EXPECT_FALSE(root.context().active());
  root.Note("must not allocate into a record anyone sees");

  trace::Span child("unsampled.child");
  EXPECT_FALSE(child.active());

  const trace::TraceStats after = trace::TraceRecorder::instance().stats();
  EXPECT_TRUE(trace::TraceRecorder::instance().Snapshot().empty());
  EXPECT_EQ(after.spans_recorded, before.spans_recorded);
  // sampling == 0 is the fully-off fast path: not even the skip counter moves.
  EXPECT_EQ(after.skipped_traces, before.skipped_traces);

  // A (vanishingly) small probability exercises the sampler proper: the coin
  // flip comes up "no" and the skip IS counted.
  trace::TraceRecorder::instance().set_sampling(1e-12);
  trace::Span coin("unsampled.coin", trace::TraceContext{});
  EXPECT_FALSE(coin.active());
  EXPECT_GE(trace::TraceRecorder::instance().stats().skipped_traces,
            before.skipped_traces + 1);
}

TEST_F(TraceTest, SampledSpansFormOneConnectedTree) {
  trace::TraceRecorder::instance().set_sampling(1.0);
  std::uint64_t trace_id = 0;
  {
    trace::Span root("req.root", trace::TraceContext{});
    ASSERT_TRUE(root.active());
    trace_id = root.context().trace_id;
    root.Note("POST /redfish/v1/Systems");
    {
      trace::Span claim("req.claim");
      ASSERT_TRUE(claim.active());
      EXPECT_EQ(claim.context().trace_id, trace_id);
      trace::Span nested("req.journal");
      EXPECT_TRUE(nested.active());
    }
    trace::Span sibling("req.create");
    EXPECT_TRUE(sibling.active());
  }
  // Ambient context fully restored once the root is gone.
  EXPECT_FALSE(trace::Current().active());

  const auto spans = trace::TraceRecorder::instance().TraceSpans(trace_id);
  ASSERT_EQ(spans.size(), 4u);
  ExpectConnectedTree(spans);
  EXPECT_THAT(Names(spans),
              ::testing::UnorderedElementsAre("req.root", "req.claim",
                                              "req.journal", "req.create"));

  const std::string tree = trace::FormatTraceTree(spans);
  EXPECT_THAT(tree, HasSubstr("req.root"));
  EXPECT_THAT(tree, HasSubstr("(POST /redfish/v1/Systems)"));
  EXPECT_THAT(tree, HasSubstr("  req.claim"));    // children indent under the root
  EXPECT_THAT(tree, HasSubstr("    req.journal"));
}

// Detached spans (the router's batched shard legs) are children of an
// explicit parent that never become the ambient context, so they may end in
// any order on one thread without corrupting what later spans parent under.
TEST_F(TraceTest, DetachedSpansEndInAnyOrderAndLeaveTheAmbientContextAlone) {
  trace::TraceRecorder::instance().set_sampling(1.0);
  std::uint64_t trace_id = 0;
  std::uint64_t root_id = 0;
  {
    trace::Span root("agg", trace::TraceContext{});
    ASSERT_TRUE(root.active());
    trace_id = root.context().trace_id;
    root_id = root.context().span_id;
    std::optional<trace::Span> first, second;
    first.emplace("leg", root.context(), trace::Detached{});
    second.emplace("leg", root.context(), trace::Detached{});
    ASSERT_TRUE(first->active());
    EXPECT_EQ(trace::Current().span_id, root_id);
    first->End();  // not the last one opened
    EXPECT_EQ(trace::Current().span_id, root_id);
    trace::Span after("after");
    EXPECT_EQ(after.context().trace_id, trace_id);
    after.End();
    second->End();
    EXPECT_EQ(trace::Current().span_id, root_id);
    EXPECT_FALSE(trace::Span("idle", trace::TraceContext{}, trace::Detached{}).active());
  }
  EXPECT_FALSE(trace::Current().active());
  const auto spans = trace::TraceRecorder::instance().TraceSpans(trace_id);
  ASSERT_EQ(spans.size(), 4u);
  ExpectConnectedTree(spans);
  for (const trace::SpanRecord& span : spans) {
    if (span.name != "agg") {
      EXPECT_EQ(span.parent_span_id, root_id) << span.name;
    }
  }
}

TEST_F(TraceTest, EntrySpanAdoptsRemoteContextAndChildrenInherit) {
  trace::TraceRecorder::instance().set_sampling(0.0);  // sampler says no...
  const std::uint64_t wire_trace = trace::NewId();
  const std::uint64_t wire_span = trace::NewId();
  {
    // ...but the wire headers carried an identity, so the server adopts it.
    trace::Span entry("http.handle", trace::TraceContext{wire_trace, wire_span});
    ASSERT_TRUE(entry.active());
    EXPECT_EQ(entry.context().trace_id, wire_trace);
    trace::Span child("auth");
    EXPECT_TRUE(child.active());
  }
  const auto spans = trace::TraceRecorder::instance().TraceSpans(wire_trace);
  ASSERT_EQ(spans.size(), 2u);
  for (const trace::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, wire_trace);
  }
  // The entry span parents under the remote caller's span.
  EXPECT_EQ(CountNamed(spans, "http.handle"), 1);
  for (const trace::SpanRecord& span : spans) {
    if (span.name == "http.handle") {
      EXPECT_EQ(span.parent_span_id, wire_span);
    }
  }
}

TEST_F(TraceTest, RingEvictsOldestWhenFull) {
  const trace::TraceStats before = trace::TraceRecorder::instance().stats();
  auto& recorder = trace::TraceRecorder::instance();
  const std::size_t extra = 16;
  for (std::size_t i = 0; i < trace::TraceRecorder::kRingCapacity + extra; ++i) {
    trace::SpanRecord span;
    span.trace_id = 1;
    span.span_id = i + 1;
    span.name = "synthetic";
    span.start_ns = i;
    recorder.Record(std::move(span));
  }
  const auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), trace::TraceRecorder::kRingCapacity);
  // Oldest-first and the first `extra` spans were evicted.
  EXPECT_EQ(snapshot.front().span_id, extra + 1);
  EXPECT_EQ(snapshot.back().span_id, trace::TraceRecorder::kRingCapacity + extra);
  const trace::TraceStats after = recorder.stats();
  EXPECT_GE(after.spans_evicted, before.spans_evicted + extra);
}

TEST_F(TraceTest, HistogramPercentilesCountAndReset) {
  metrics::Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1000);   // ~1 us
  for (int i = 0; i < 10; ++i) hist.Record(1000000); // ~1 ms tail
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 110u);
  EXPECT_EQ(snap.sum, 100u * 1000u + 10u * 1000000u);

  // Log2 buckets: estimates are octave-accurate, which is all we assert.
  const double p50 = snap.Percentile(0.50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 2048.0);
  const double p99 = snap.Percentile(0.99);
  EXPECT_GE(p99, 524288.0);  // within the ~1 ms octave
  EXPECT_LE(p99, 2097152.0);
  EXPECT_GE(p99, p50);
  EXPECT_NEAR(snap.mean(), (100.0 * 1000.0 + 10.0 * 1000000.0) / 110.0, 1.0);

  hist.Reset();
  const auto zero = hist.snapshot();
  EXPECT_EQ(zero.count, 0u);
  EXPECT_EQ(zero.Percentile(0.99), 0.0);
}

TEST_F(TraceTest, HistogramMergeSumsBucketsAndDerivesCount) {
  metrics::Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1000);    // ~1 us
  for (int i = 0; i < 50; ++i) b.Record(1000);
  for (int i = 0; i < 10; ++i) b.Record(1000000);  // ~1 ms tail

  const auto snap_a = a.snapshot();
  const auto snap_b = b.snapshot();
  auto merged = a.snapshot();
  merged.Merge(snap_b);

  // Buckets and sums add; the count is re-derived from the merged buckets so
  // a merge of already-merged snapshots stays self-consistent.
  std::uint64_t derived = 0;
  for (std::size_t i = 0; i < metrics::Histogram::kBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], snap_a.buckets[i] + snap_b.buckets[i])
        << "bucket " << i;
    derived += merged.buckets[i];
  }
  EXPECT_EQ(merged.count, derived);
  EXPECT_EQ(merged.count, 160u);
  EXPECT_EQ(merged.sum, snap_a.sum + snap_b.sum);
  EXPECT_EQ(merged.DerivedCount(), merged.count);

  // Percentiles recompute from the merged buckets (they never average).
  EXPECT_GE(merged.Percentile(0.50), 512.0);
  EXPECT_LE(merged.Percentile(0.50), 2048.0);
  EXPECT_GE(merged.Percentile(0.99), 524288.0);
  EXPECT_LE(merged.Percentile(0.99), 2097152.0);

  auto twice = merged;
  twice.Merge(merged);
  EXPECT_EQ(twice.count, 2 * merged.count);
  EXPECT_EQ(twice.sum, 2 * merged.sum);
}

TEST_F(TraceTest, ErrorAndSlowTreesAreRetainedForTraceDump) {
  auto& recorder = trace::TraceRecorder::instance();
  recorder.set_sampling(1.0);

  // Default retain threshold 0: plain traces vanish with the ring, error
  // trees are kept.
  std::uint64_t ok_id = 0, err_id = 0;
  {
    trace::Span root("ok.root", trace::TraceContext{});
    ok_id = root.context().trace_id;
  }
  {
    trace::Span root("bad.root", trace::TraceContext{});
    err_id = root.context().trace_id;
    trace::Span child("bad.child");
    child.SetError();
  }
  EXPECT_TRUE(recorder.RetainedTrace(ok_id).empty());
  const auto retained = recorder.RetainedTrace(err_id);
  ASSERT_FALSE(retained.empty());
  EXPECT_EQ(Names(retained).count("bad.child"), 1u);
  const auto ids = recorder.RetainedTraceIds();
  EXPECT_NE(std::find(ids.begin(), ids.end(), err_id), ids.end());

  // A retain threshold keeps slow (non-error) local-root trees too.
  recorder.set_retain_threshold_ns(1);
  std::uint64_t slow_id = 0;
  {
    trace::Span root("slow.root", trace::TraceContext{});
    slow_id = root.context().trace_id;
  }
  recorder.set_retain_threshold_ns(0);
  EXPECT_FALSE(recorder.RetainedTrace(slow_id).empty());

  // Bounded FIFO: flooding with fresh error trees evicts the oldest.
  for (std::size_t i = 0; i < trace::TraceRecorder::kRetainedTraces + 4; ++i) {
    trace::Span root("err.flood", trace::TraceContext{});
    root.SetError();
  }
  EXPECT_LE(recorder.RetainedTraceIds().size(), trace::TraceRecorder::kRetainedTraces);
  EXPECT_TRUE(recorder.RetainedTrace(err_id).empty()) << "oldest tree must be evicted";
}

TEST_F(TraceTest, ScopedTimerRecordsUnlessNullOrCancelled) {
  metrics::Histogram& hist =
      metrics::Registry::instance().histogram("trace_test.timer.ns");
  hist.Reset();

  { metrics::ScopedTimer timer(hist); }
  EXPECT_EQ(hist.snapshot().count, 1u);

  {  // null histogram and Cancel() are both safe no-ops
    metrics::ScopedTimer null_timer(nullptr);
    metrics::ScopedTimer cancelled(hist);
    cancelled.Cancel();
  }
  EXPECT_EQ(hist.snapshot().count, 1u);
}

TEST_F(TraceTest, SlowRootSpanDumpsItsTreeViaWarnLog) {
  trace::TraceRecorder::instance().set_sampling(1.0);
  trace::TraceRecorder::instance().set_slow_threshold_ns(1);  // everything is slow

  auto& logger = Logger::instance();
  std::vector<std::string> captured;
  std::mutex captured_mu;
  auto old_sink = logger.set_sink([&](LogLevel, const std::string& message) {
    std::lock_guard<std::mutex> lock(captured_mu);
    captured.push_back(message);
  });

  std::uint64_t trace_id = 0;
  {
    trace::Span root("slow.root", trace::TraceContext{});
    trace_id = root.context().trace_id;
    trace::Span child("slow.child");
  }
  logger.set_sink(std::move(old_sink));

  bool dumped = false;
  for (const std::string& line : captured) {
    if (line.find("slow request trace") != std::string::npos) {
      dumped = true;
      EXPECT_THAT(line, HasSubstr(trace::IdToHex(trace_id)));
      EXPECT_THAT(line, HasSubstr("slow.root"));
      EXPECT_THAT(line, HasSubstr("slow.child"));
    }
  }
  EXPECT_TRUE(dumped) << "no slow-request dump reached the log sink";
  const trace::TraceStats stats = trace::TraceRecorder::instance().stats();
  EXPECT_GE(stats.slow_traces, 1u);
}

TEST_F(TraceTest, LogLinePrefixCarriesMonotonicClockAndThreadOrdinal) {
  const std::string prefix = LogLinePrefix();
  EXPECT_THAT(prefix, ::testing::MatchesRegex(
                          "\\[ *[0-9]+\\.[0-9]{3}s\\] \\[T[0-9]+\\] "));
  // Same thread, same ordinal: the [Tn] tag is stable across lines.
  EXPECT_EQ(LogLinePrefix().substr(prefix.find("[T")),
            prefix.substr(prefix.find("[T")));
}

TEST_F(TraceTest, ConcurrentRecordingAndScrapingIsClean) {
  trace::TraceRecorder::instance().set_sampling(1.0);
  metrics::Histogram& hist =
      metrics::Registry::instance().histogram("trace_test.concurrent.ns");
  hist.Reset();

  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < 500; ++i) {
        trace::Span root("conc.root", trace::TraceContext{});
        trace::Span child("conc.child");
        hist.Record(static_cast<std::uint64_t>(i) + 1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        (void)trace::TraceRecorder::instance().Snapshot();
        (void)trace::TraceRecorder::instance().stats();
        (void)metrics::Registry::instance().HistogramSnapshots();
        (void)metrics::Registry::instance().CounterValues();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(hist.snapshot().count, 4u * 500u);
  EXPECT_FALSE(trace::TraceRecorder::instance().Snapshot().empty());
}

/// Client stack whose wire always fails: compose exhausts its retries, and
/// the resulting trace must still be one connected tree with every failed
/// attempt recorded as a sibling span.
TEST_F(TraceTest, ExhaustedRetriesStillFormOneConnectedTree) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());

  auto faults = std::make_shared<FaultInjector>(42);
  faults->ArmProbability("trace.conn", FaultKind::kDropConnection, 1.0);
  http::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 1;
  policy.deadline_ms = 10000;
  composability::OfmfClient client(std::make_unique<http::RetryingClient>(
      std::make_unique<http::FaultyClient>(
          std::make_unique<http::InProcessClient>(ofmf.Handler()), faults,
          "trace.conn"),
      policy));

  trace::TraceRecorder::instance().set_sampling(1.0);
  const auto composed = client.Post(
      core::kSystems,
      Json::Obj({{"Name", "doomed"},
                 {"Links", Json::Obj({{"ResourceBlocks", Json::Arr({})}})}}));
  trace::TraceRecorder::instance().set_sampling(0.0);
  ASSERT_FALSE(composed.ok());

  const auto traces = ByTrace();
  ASSERT_EQ(traces.size(), 1u) << "one compose must yield exactly one trace";
  const std::vector<trace::SpanRecord>& spans = traces.begin()->second;
  ExpectConnectedTree(spans);
  EXPECT_EQ(CountNamed(spans, "client.post"), 1);
  ASSERT_EQ(CountNamed(spans, "retry.attempt"), policy.max_attempts);
  for (const trace::SpanRecord& span : spans) {
    if (span.name != "retry.attempt") continue;
    EXPECT_THAT(span.note, HasSubstr("attempt"));
    EXPECT_THAT(span.note, HasSubstr("error:")) << "failed attempt must record why";
  }
}

/// Two scrapes with no traffic in between must be byte-identical: the
/// MetricReports subtree is excluded from the endpoint histograms, the quiet
/// publish finds no value moved and skips the write, the ETag holds, and the
/// conditional re-GET comes back 304.
TEST_F(TraceTest, RequestLatencyReportETagStableAcrossScrapes) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());

  // Move some counters so the report has content.
  for (int i = 0; i < 5; ++i) {
    const http::Response probe =
        ofmf.Handle(http::MakeRequest(http::Method::kGet, core::kServiceRoot));
    ASSERT_EQ(probe.status, 200);
  }

  const std::string report_uri = core::TelemetryService::ReportUri("RequestLatency");
  const http::Response first =
      ofmf.Handle(http::MakeRequest(http::Method::kGet, report_uri));
  ASSERT_EQ(first.status, 200);
  const std::string etag = first.headers.GetOr("ETag", "");
  ASSERT_FALSE(etag.empty());

  http::Request conditional = http::MakeRequest(http::Method::kGet, report_uri);
  conditional.headers.Set("If-None-Match", etag);
  const http::Response second = ofmf.Handle(conditional);
  EXPECT_EQ(second.status, 304) << "scrape must not perturb its own report";
  EXPECT_EQ(second.headers.GetOr("ETag", ""), etag);

  // New traffic moves the histograms; the next scrape republished.
  const http::Response churn =
      ofmf.Handle(http::MakeRequest(http::Method::kGet, core::kSystems));
  ASSERT_EQ(churn.status, 200);
  const http::Response third = ofmf.Handle(conditional);
  EXPECT_EQ(third.status, 200);
  EXPECT_NE(third.headers.GetOr("ETag", ""), etag);
}

/// The piggybacked refresh publishes all three reports after enough traffic,
/// without anyone GETting the report URIs (which lazily refresh on read).
TEST_F(TraceTest, PeriodicRefreshPublishesReportsWithoutScrapes) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());

  EXPECT_FALSE(
      ofmf.tree().Get(core::TelemetryService::ReportUri("RequestLatency")).ok());
  // The stride counter is thread-local and shared across services, so any
  // full interval's worth of requests crosses the refresh boundary exactly
  // once, whatever phase the counter started in.
  for (std::uint64_t i = 0; i < core::OfmfService::kReportRefreshInterval; ++i) {
    (void)ofmf.Handle(http::MakeRequest(http::Method::kGet, core::kServiceRoot));
  }
  EXPECT_TRUE(
      ofmf.tree().Get(core::TelemetryService::ReportUri("RequestLatency")).ok());
  EXPECT_TRUE(
      ofmf.tree().Get(core::TelemetryService::ReportUri("ResponseCache")).ok());
  EXPECT_TRUE(
      ofmf.tree().Get(core::TelemetryService::ReportUri("Resilience")).ok());
}

TEST_F(TraceTest, MetricsDumpActionReturnsHistogramsCountersAndTraceStats) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  for (int i = 0; i < 3; ++i) {
    (void)ofmf.Handle(http::MakeRequest(http::Method::kGet, core::kServiceRoot));
  }

  const http::Response dump = ofmf.Handle(http::MakeJsonRequest(
      http::Method::kPost,
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump",
      Json::MakeObject()));
  ASSERT_EQ(dump.status, 200) << dump.body;
  const auto parsed = json::Parse(dump.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Contains("Histograms"));
  EXPECT_TRUE(parsed->Contains("Counters"));
  EXPECT_TRUE(parsed->Contains("Trace"));

  bool saw_service_root_latency = false;
  for (const Json& entry : parsed->at("Histograms").as_array()) {
    if (entry.GetString("Name") == "http.latency.GET.ServiceRoot") {
      saw_service_root_latency = true;
      EXPECT_GE(entry.GetInt("Count"), 3);
      EXPECT_GT(entry.GetDouble("P50"), 0.0);
    }
  }
  EXPECT_TRUE(saw_service_root_latency);
}

/// End-to-end acceptance: a real TCP wire, a durable store fsyncing every
/// record, retries in the client stack, and an IB fabric agent. One compose
/// and one fabric connection each produce a single connected trace stitching
/// client, transport, REST, composition/agent, and journal spans together.
class WireTraceTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    ASSERT_TRUE(graph_.AddVertex("sw0", fabricsim::VertexKind::kSwitch, 8).ok());
    ASSERT_TRUE(graph_.AddVertex("n1", fabricsim::VertexKind::kDevice, 2).ok());
    ASSERT_TRUE(graph_.AddVertex("n2", fabricsim::VertexKind::kDevice, 2).ok());
    ASSERT_TRUE(graph_.Connect("n1", 0, "sw0", 0, {50, 200}).ok());
    ASSERT_TRUE(graph_.Connect("n2", 0, "sw0", 1, {50, 200}).ok());
    sm_ = std::make_unique<fabricsim::IbSubnetManager>(graph_);

    ASSERT_TRUE(ofmf_.Bootstrap().ok());

    // group_commit off: every tree mutation commits and fsyncs inline, so
    // journal.fsync spans land inside the request that caused them.
    store_dir_ = ::testing::TempDir() + "ofmf_trace_wire";
    std::filesystem::remove_all(store_dir_);
    store::StoreOptions options;
    options.dir = store_dir_;
    options.group_commit = false;
    auto persistent = store::PersistentStore::Open(options);
    ASSERT_TRUE(persistent.ok()) << persistent.status().message();
    ASSERT_TRUE(ofmf_.EnableDurability(std::move(*persistent)).ok());

    ASSERT_TRUE(
        ofmf_.RegisterAgent(std::make_shared<agents::IbAgent>("IB", *sm_)).ok());
    core::BlockCapability compute;
    compute.id = "cpu0";
    compute.block_type = "Compute";
    compute.cores = 8;
    compute.memory_gib = 32;
    ASSERT_TRUE(ofmf_.composition().RegisterBlock(compute).ok());

    ASSERT_TRUE(server_.Start(ofmf_.Handler()).ok());
    http::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 2;
    policy.deadline_ms = 5000;
    client_ = std::make_unique<composability::OfmfClient>(
        std::make_unique<http::RetryingClient>(
            std::make_unique<http::TcpClient>(server_.port()), policy));
  }

  void TearDown() override {
    server_.Stop();
    std::filesystem::remove_all(store_dir_);
    TraceTest::TearDown();
  }

  fabricsim::FabricGraph graph_;
  std::unique_ptr<fabricsim::IbSubnetManager> sm_;
  core::OfmfService ofmf_;
  http::TcpServer server_;
  std::unique_ptr<composability::OfmfClient> client_;
  std::string store_dir_;
};

TEST_F(WireTraceTest, ComposeAndFabricCallTraceEndToEndOverTcp) {
  trace::TraceRecorder::instance().Clear();
  trace::TraceRecorder::instance().set_sampling(1.0);

  composability::ComposabilityManager manager(*client_);
  composability::CompositionRequest request;
  request.name = "trace-job";
  request.cores = 8;
  const auto composed = manager.Compose(request);
  ASSERT_TRUE(composed.ok()) << composed.status().message();

  const std::string ep1 = core::FabricUri("IB") + "/Endpoints/n1";
  const std::string ep2 = core::FabricUri("IB") + "/Endpoints/n2";
  const auto connection = client_->Post(
      core::FabricUri("IB") + "/Connections",
      Json::Obj(
          {{"Name", "trace-conn"},
           {"ConnectionType", "Network"},
           {"Links", Json::Obj({{"InitiatorEndpoints",
                                 Json::Arr({Json::Obj({{"@odata.id", ep1}})})},
                                {"TargetEndpoints",
                                 Json::Arr({Json::Obj({{"@odata.id", ep2}})})}})}}));
  ASSERT_TRUE(connection.ok()) << connection.status().message();
  trace::TraceRecorder::instance().set_sampling(0.0);

  const auto traces = ByTrace();

  // The compose POST: client -> retry attempt -> TCP accept thread -> HTTP
  // handler -> REST create -> claim/create -> journal commit+fsync, all one
  // connected tree under one trace id.
  const std::vector<trace::SpanRecord>* compose_trace = nullptr;
  const std::vector<trace::SpanRecord>* connection_trace = nullptr;
  for (const auto& [trace_id, spans] : traces) {
    if (CountNamed(spans, "compose.create") > 0) compose_trace = &spans;
    if (CountNamed(spans, "agent.call") > 0) connection_trace = &spans;
  }
  ASSERT_NE(compose_trace, nullptr) << "no trace contains the compose spans";
  ExpectConnectedTree(*compose_trace);
  const std::set<std::string> compose_names = Names(*compose_trace);
  for (const char* expected :
       {"client.post", "retry.attempt", "tcp.serve", "http.handle",
        "rest.handle", "rest.parse", "rest.create", "compose.claim",
        "compose.create", "journal.commit", "journal.fsync"}) {
    EXPECT_EQ(compose_names.count(expected), 1u)
        << expected << " missing from compose trace:\n"
        << trace::FormatTraceTree(*compose_trace);
  }

  // The fabric connection POST routes through the circuit-breaker-guarded
  // agent call and journals too — same end-to-end stitching.
  ASSERT_NE(connection_trace, nullptr) << "no trace contains an agent.call span";
  ExpectConnectedTree(*connection_trace);
  const std::set<std::string> connection_names = Names(*connection_trace);
  for (const char* expected :
       {"client.post", "retry.attempt", "tcp.serve", "http.handle",
        "rest.handle", "rest.create", "agent.call", "journal.commit",
        "journal.fsync"}) {
    EXPECT_EQ(connection_names.count(expected), 1u)
        << expected << " missing from connection trace:\n"
        << trace::FormatTraceTree(*connection_trace);
  }

  // The agent latency histogram moved.
  bool saw_agent_latency = false;
  for (const auto& [name, snap] : metrics::Registry::instance().HistogramSnapshots()) {
    if (name == "agent.call.ns" && snap.count > 0) {
      saw_agent_latency = true;
    }
  }
  EXPECT_TRUE(saw_agent_latency);
}

}  // namespace
}  // namespace ofmf
