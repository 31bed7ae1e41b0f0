// Fault injection, retry/backoff, idempotency dedupe, circuit breaking and
// transactional compose: the machinery that keeps the OFMF coherent when
// transports drop, agents crash and clients replay.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <memory>

#include "agents/ib_agent.hpp"
#include "common/faults.hpp"
#include "composability/client.hpp"
#include "http/resilience.hpp"
#include "http/server.hpp"
#include "ofmf/breaker.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "redfish/errors.hpp"

namespace ofmf {
namespace {

using json::Json;
using ::testing::HasSubstr;

// ----------------------------------------------------------- FaultInjector ---

TEST(FaultInjectorTest, SeededProbabilityIsDeterministic) {
  FaultInjector a(42), b(42);
  a.ArmProbability("p", FaultKind::kDropConnection, 0.3);
  b.ArmProbability("p", FaultKind::kDropConnection, 0.3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Evaluate("p").fired(), b.Evaluate("p").fired());
  }
  EXPECT_EQ(a.fires("p"), b.fires("p"));
  EXPECT_GT(a.fires("p"), 30u);  // ~60 expected at p=0.3
  EXPECT_LT(a.fires("p"), 90u);
}

TEST(FaultInjectorTest, NthCallFiresExactlyOnce) {
  FaultInjector inj;
  inj.ArmNthCall("n", FaultKind::kCrash, 3);
  for (int call = 1; call <= 6; ++call) {
    EXPECT_EQ(inj.Evaluate("n").fired(), call == 3) << "call " << call;
  }
  EXPECT_EQ(inj.calls("n"), 6u);
  EXPECT_EQ(inj.fires("n"), 1u);
}

TEST(FaultInjectorTest, WindowModelsCrashThenRecovery) {
  FaultInjector inj;
  inj.ArmWindow("w", FaultKind::kCrash, 2, 5);  // calls 2,3,4 fail
  std::vector<bool> fired;
  for (int call = 1; call <= 6; ++call) fired.push_back(inj.Evaluate("w").fired());
  EXPECT_EQ(fired, (std::vector<bool>{false, true, true, true, false, false}));
}

TEST(FaultInjectorTest, ScheduleFiresOnListedCallsOnly) {
  FaultInjector inj;
  inj.ArmSchedule("s", FaultKind::kDelay, {1, 4});
  EXPECT_TRUE(inj.Evaluate("s").fired());
  EXPECT_FALSE(inj.Evaluate("s").fired());
  EXPECT_FALSE(inj.Evaluate("s").fired());
  EXPECT_TRUE(inj.Evaluate("s").fired());
  EXPECT_EQ(inj.total_fires(), 2u);
}

TEST(FaultInjectorTest, KillSwitchAndDisarm) {
  FaultInjector inj;
  inj.ArmProbability("p", FaultKind::kCrash, 1.0);
  inj.set_enabled(false);
  EXPECT_FALSE(inj.Evaluate("p").fired());
  inj.set_enabled(true);
  EXPECT_TRUE(inj.Evaluate("p").fired());
  inj.Disarm("p");
  EXPECT_FALSE(inj.Evaluate("p").fired());
  EXPECT_EQ(inj.calls("p"), 2u);  // disabled probes are not counted
  inj.Disarm("never-armed");      // harmless
}

// -------------------------------------------------------------- decorators ---

/// Scripted transport: pops pre-programmed results, counts calls.
class ScriptedClient : public http::HttpClient {
 public:
  Result<http::Response> Send(const http::Request& request) override {
    ++calls_;
    last_request_ = request;
    if (script_.empty()) return http::MakeTextResponse(200, "ok");
    Result<http::Response> next = std::move(script_.front());
    script_.pop_front();
    return next;
  }
  void Push(Result<http::Response> result) { script_.push_back(std::move(result)); }
  int calls_ = 0;
  http::Request last_request_;

 private:
  std::deque<Result<http::Response>> script_;
};

TEST(FaultyClientTest, NullOrDisabledInjectorPassesThrough) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  http::FaultyClient faulty(std::move(inner), nullptr);
  EXPECT_EQ(faulty.Get("/x")->status, 200);
  EXPECT_EQ(raw->calls_, 1);
}

TEST(FaultyClientTest, DropConnectionNeverReachesInner) {
  auto faults = std::make_shared<FaultInjector>();
  faults->ArmNthCall("http.client", FaultKind::kDropConnection, 1);
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  http::FaultyClient faulty(std::move(inner), faults);
  auto result = faulty.Get("/x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(raw->calls_, 0);
  EXPECT_EQ(faulty.Get("/x")->status, 200);  // rule consumed
}

TEST(FaultyClientTest, DropResponseAppliesRequestButLosesResponse) {
  auto faults = std::make_shared<FaultInjector>();
  faults->ArmNthCall("http.client", FaultKind::kDropResponse, 1);
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  http::FaultyClient faulty(std::move(inner), faults);
  auto result = faulty.Get("/x");
  ASSERT_FALSE(result.ok());
  EXPECT_THAT(result.status().message(), HasSubstr("response lost"));
  EXPECT_EQ(raw->calls_, 1);  // the request DID reach the peer
}

TEST(FaultyClientTest, ErrorStatusSynthesizesRetryableResponse) {
  auto faults = std::make_shared<FaultInjector>();
  faults->ArmNthCall("http.client", FaultKind::kErrorStatus, 1);
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  http::FaultyClient faulty(std::move(inner), faults);
  auto result = faulty.Get("/x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 503);
  EXPECT_TRUE(result->headers.Contains("Retry-After"));
  EXPECT_EQ(raw->calls_, 0);
}

http::RetryPolicy FastPolicy() {
  http::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 0;  // no sleeping in unit tests
  policy.max_backoff_ms = 0;
  policy.deadline_ms = 5000;
  return policy;
}

TEST(RetryingClientTest, RetriesTransportErrorsUntilSuccess) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  raw->Push(Status::Unavailable("boom"));
  raw->Push(Status::Timeout("slow"));
  http::RetryingClient retrying(std::move(inner), FastPolicy());
  auto result = retrying.Get("/x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(raw->calls_, 3);
  const http::RetryStats stats = retrying.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.transport_errors, 2u);
}

TEST(RetryingClientTest, RetryableHttpStatusesRetried) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  raw->Push(http::MakeTextResponse(503, "overloaded"));
  raw->Push(http::MakeTextResponse(429, "slow down"));
  http::RetryingClient retrying(std::move(inner), FastPolicy());
  EXPECT_EQ(retrying.Get("/x")->status, 200);
  EXPECT_EQ(raw->calls_, 3);
  EXPECT_EQ(retrying.stats().retryable_statuses, 2u);
}

TEST(RetryingClientTest, NonRetryableStatusReturnsImmediately) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  raw->Push(http::MakeTextResponse(404, "nope"));
  http::RetryingClient retrying(std::move(inner), FastPolicy());
  EXPECT_EQ(retrying.Get("/x")->status, 404);
  EXPECT_EQ(raw->calls_, 1);
}

TEST(RetryingClientTest, PostWithoutIdempotencyKeyNeverRetried) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  raw->Push(Status::Unavailable("boom"));
  http::RetryingClient retrying(std::move(inner), FastPolicy());
  auto result = retrying.PostJson("/x", Json::MakeObject());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(raw->calls_, 1);  // one attempt: a blind replay could double-apply
}

TEST(RetryingClientTest, PostWithRequestIdIsRetried) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  raw->Push(Status::Unavailable("boom"));
  http::RetryingClient retrying(std::move(inner), FastPolicy());
  http::Request request = http::MakeJsonRequest(http::Method::kPost, "/x",
                                                Json::MakeObject());
  request.headers.Set("X-Request-Id", "req-1");
  EXPECT_EQ(retrying.Send(request)->status, 200);
  EXPECT_EQ(raw->calls_, 2);
}

TEST(RetryingClientTest, GivesUpAfterMaxAttempts) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  for (int i = 0; i < 10; ++i) raw->Push(Status::Unavailable("down"));
  http::RetryingClient retrying(std::move(inner), FastPolicy());
  EXPECT_FALSE(retrying.Get("/x").ok());
  EXPECT_EQ(raw->calls_, 4);  // max_attempts
  EXPECT_EQ(retrying.stats().exhausted_attempts, 1u);
}

TEST(RetryingClientTest, DeadlineBudgetBoundsRetryAfterSleeps) {
  auto inner = std::make_unique<ScriptedClient>();
  ScriptedClient* raw = inner.get();
  http::Response overloaded = http::MakeTextResponse(503, "busy");
  overloaded.headers.Set("Retry-After", "2");  // 2 s, far beyond the budget
  raw->Push(overloaded);
  http::RetryPolicy policy = FastPolicy();
  policy.deadline_ms = 100;
  http::RetryingClient retrying(std::move(inner), policy);
  EXPECT_EQ(retrying.Get("/x")->status, 503);  // gave up instead of sleeping 2 s
  EXPECT_EQ(raw->calls_, 1);
  EXPECT_EQ(retrying.stats().deadline_exhausted, 1u);
}

// A Retry-After past what int milliseconds can hold (here, past int64
// seconds) is a wait beyond any budget: the client gives up at once instead
// of overflowing into a short or negative sleep.
TEST(RetryingClientTest, HugeRetryAfterExhaustsDeadlineWithoutSleeping) {
  for (const char* retry_after : {"2200000", "99999999999999999999"}) {
    auto inner = std::make_unique<ScriptedClient>();
    ScriptedClient* raw = inner.get();
    http::Response overloaded = http::MakeTextResponse(503, "busy");
    overloaded.headers.Set("Retry-After", retry_after);
    raw->Push(overloaded);
    raw->Push(http::MakeTextResponse(200, "ok"));
    http::RetryPolicy policy = FastPolicy();
    policy.deadline_ms = 60000;
    http::RetryingClient retrying(std::move(inner), policy);
    const auto started = std::chrono::steady_clock::now();
    EXPECT_EQ(retrying.Get("/x")->status, 503) << retry_after;
    EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(5));
    EXPECT_EQ(raw->calls_, 1) << retry_after;
    EXPECT_EQ(retrying.stats().deadline_exhausted, 1u) << retry_after;
  }
}

// -------------------------------------------------------- HTTP error model ---

TEST(ErrorModelTest, TimeoutMapsToGatewayTimeout) {
  EXPECT_EQ(http::StatusToHttp(Status::Timeout("late")), 504);
  EXPECT_EQ(http::StatusToHttp(Status::Unavailable("down")), 503);
  EXPECT_EQ(http::ReasonPhrase(504), "Gateway Timeout");
  EXPECT_EQ(http::ReasonPhrase(429), "Too Many Requests");
}

TEST(ErrorModelTest, ServiceUnavailableCarriesRetryAfter) {
  const http::Response response = redfish::ErrorResponse(Status::Unavailable("down"));
  EXPECT_EQ(response.status, 503);
  EXPECT_TRUE(response.headers.Contains("Retry-After"));
  const http::Response not_found = redfish::ErrorResponse(Status::NotFound("gone"));
  EXPECT_FALSE(not_found.headers.Contains("Retry-After"));
}

// ---------------------------------------------------------- CircuitBreaker ---

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresOnly) {
  core::CircuitBreaker breaker({.failure_threshold = 3, .open_cooldown_calls = 2});
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // resets the streak
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);
}

TEST(CircuitBreakerTest, CooldownRejectionsLeadToHalfOpenProbe) {
  core::CircuitBreaker breaker({.failure_threshold = 1, .open_cooldown_calls = 2});
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());  // cooldown spent -> half-open
  EXPECT_EQ(breaker.state(), core::BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow());  // the probe
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_EQ(breaker.stats().rejected, 2u);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  core::CircuitBreaker breaker({.failure_threshold = 1, .open_cooldown_calls = 1});
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.Allow());
  ASSERT_EQ(breaker.state(), core::BreakerState::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 2u);
}

// ------------------------------------------------- service-level integration ---

class ResilientServiceTest : public ::testing::Test {
 protected:
  ResilientServiceTest() {
    EXPECT_TRUE(graph_.AddVertex("sw0", fabricsim::VertexKind::kSwitch, 8).ok());
    EXPECT_TRUE(graph_.AddVertex("n1", fabricsim::VertexKind::kDevice, 2).ok());
    EXPECT_TRUE(graph_.AddVertex("n2", fabricsim::VertexKind::kDevice, 2).ok());
    EXPECT_TRUE(graph_.Connect("n1", 0, "sw0", 0, {50, 200}).ok());
    EXPECT_TRUE(graph_.Connect("n2", 0, "sw0", 1, {50, 200}).ok());
    sm_ = std::make_unique<fabricsim::IbSubnetManager>(graph_);
    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    EXPECT_TRUE(ofmf_.RegisterAgent(std::make_shared<agents::IbAgent>("IB", *sm_)).ok());
    faults_ = std::make_shared<FaultInjector>(7);
    ofmf_.set_fault_injector(faults_);
    client_ = std::make_unique<composability::OfmfClient>(
        std::make_unique<http::InProcessClient>(ofmf_.Handler()));

    for (int i = 0; i < 4; ++i) {
      core::BlockCapability block;
      block.id = "blk" + std::to_string(i);
      block.block_type = "Compute";
      block.cores = 8;
      block.memory_gib = 32;
      EXPECT_TRUE(ofmf_.composition().RegisterBlock(block).ok());
    }
  }

  Json ConnectionBody() const {
    const std::string ep1 = core::FabricUri("IB") + "/Endpoints/n1";
    const std::string ep2 = core::FabricUri("IB") + "/Endpoints/n2";
    return Json::Obj(
        {{"Name", "mpi"},
         {"ConnectionType", "Network"},
         {"Links", Json::Obj({{"InitiatorEndpoints",
                               Json::Arr({Json::Obj({{"@odata.id", ep1}})})},
                              {"TargetEndpoints",
                               Json::Arr({Json::Obj({{"@odata.id", ep2}})})}})}});
  }

  std::string BlockUri(int i) const {
    return std::string(core::kResourceBlocks) + "/blk" + std::to_string(i);
  }

  fabricsim::FabricGraph graph_;
  std::unique_ptr<fabricsim::IbSubnetManager> sm_;
  core::OfmfService ofmf_;
  std::shared_ptr<FaultInjector> faults_;
  std::unique_ptr<composability::OfmfClient> client_;
};

TEST_F(ResilientServiceTest, AgentCrashOpensBreakerDegradesAndRecovers) {
  // Agent dead for its next 5 calls: three failures open the breaker, the
  // failed half-open probes keep it open, and once the window passes a probe
  // closes it again.
  faults_->ArmWindow("agent.IB", FaultKind::kCrash, 1, 6);
  const std::string connections_uri = core::FabricUri("IB") + "/Connections";
  core::CircuitBreaker* breaker = *ofmf_.BreakerForFabric("IB");

  int posts = 0;
  bool saw_open = false;
  while (breaker->state() != core::BreakerState::kOpen && posts < 10) {
    ++posts;
    EXPECT_FALSE(client_->Post(connections_uri, ConnectionBody()).ok());
  }
  ASSERT_EQ(breaker->state(), core::BreakerState::kOpen);
  saw_open = true;
  EXPECT_EQ(posts, 3);  // failure_threshold

  // Degraded, not deleted: the endpoint is still served, with Critical status.
  const std::string endpoint_uri = core::FabricUri("IB") + "/Endpoints/n1";
  Json endpoint = *client_->Get(endpoint_uri);
  EXPECT_EQ(endpoint.at("Status").GetString("State"), "UnavailableOffline");
  EXPECT_EQ(endpoint.at("Status").GetString("Health"), "Critical");
  EXPECT_TRUE(ofmf_.FabricDegraded("IB"));

  // Keep knocking: rejections, then probes; the agent recovers at call 6 and
  // the successful probe closes the breaker and restores the fabric.
  int extra = 0;
  while (breaker->state() != core::BreakerState::kClosed && extra < 60) {
    ++extra;
    (void)client_->Post(connections_uri, ConnectionBody());
  }
  EXPECT_EQ(breaker->state(), core::BreakerState::kClosed);
  EXPECT_FALSE(ofmf_.FabricDegraded("IB"));
  endpoint = *client_->Get(endpoint_uri);
  EXPECT_EQ(endpoint.at("Status").GetString("State"), "Enabled");
  EXPECT_EQ(endpoint.at("Status").GetString("Health"), "OK");

  const core::BreakerStats stats = breaker->stats();
  EXPECT_TRUE(saw_open);
  EXPECT_GE(stats.opens, 1u);
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_GT(stats.rejected, 0u);

  // The counters surface over Redfish as the Resilience MetricReport.
  const Json report = *client_->Get(core::TelemetryService::ResilienceReportUri());
  bool saw_opens_metric = false;
  for (const Json& value : report.at("MetricValues").as_array()) {
    if (value.GetString("MetricId") == "BreakerOpens.IB") {
      saw_opens_metric = true;
      EXPECT_GE(value.GetDouble("MetricValue"), 1.0);
    }
  }
  EXPECT_TRUE(saw_opens_metric);
  EXPECT_EQ(report.at("Oem").at("Ofmf").at("Breakers").as_array()[0].GetString("State"),
            "Closed");
}

TEST_F(ResilientServiceTest, ClientErrorsDoNotTripTheBreaker) {
  core::CircuitBreaker* breaker = *ofmf_.BreakerForFabric("IB");
  const std::string connections_uri = core::FabricUri("IB") + "/Connections";
  for (int i = 0; i < 6; ++i) {
    // Body missing endpoints: the agent answers InvalidArgument; that says
    // nothing about agent health.
    EXPECT_FALSE(client_->Post(connections_uri,
                               Json::Obj({{"Name", "junk"},
                                          {"ConnectionType", "Network"}}))
                     .ok());
  }
  EXPECT_EQ(breaker->state(), core::BreakerState::kClosed);
  EXPECT_EQ(breaker->stats().failures, 0u);
}

TEST_F(ResilientServiceTest, PostReplayDedupedByRequestId) {
  http::Request compose = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "dedupe"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(0)}})})}})}}));
  compose.headers.Set("X-Request-Id", "compose-once");
  const http::Response first = ofmf_.Handle(compose);
  ASSERT_EQ(first.status, 201);
  const http::Response replay = ofmf_.Handle(compose);
  EXPECT_EQ(replay.status, 201);
  EXPECT_EQ(replay.headers.GetOr("Location", ""),
            first.headers.GetOr("Location", ""));
  // One system, not two; three blocks still free.
  EXPECT_EQ(ofmf_.tree().Members(core::kSystems)->size(), 1u);
  EXPECT_EQ(ofmf_.composition().FreeBlockUris().size(), 3u);
}

TEST_F(ResilientServiceTest, FailedPostsAreNotReplayCached) {
  http::Request bad = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "bad"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", "/redfish/v1/nope"}})})}})}}));
  bad.headers.Set("X-Request-Id", "retry-me");
  EXPECT_EQ(ofmf_.Handle(bad).status, 404);
  // Same key, now-valid body: must re-execute, not replay the 404.
  http::Request good = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "good"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(0)}})})}})}}));
  good.headers.Set("X-Request-Id", "retry-me");
  EXPECT_EQ(ofmf_.Handle(good).status, 201);
}

TEST_F(ResilientServiceTest, ReplayCacheNeverBypassesAuth) {
  ofmf_.sessions().set_auth_required(true);
  const http::Response session = ofmf_.Handle(http::MakeJsonRequest(
      http::Method::kPost, core::kSessions,
      Json::Obj({{"UserName", "admin"}, {"Password", "ofmf"}})));
  ASSERT_EQ(session.status, 201);
  const std::string token = session.headers.GetOr("X-Auth-Token", "");

  http::Request compose = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "secret"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(0)}})})}})}}));
  compose.headers.Set("X-Request-Id", "guessable-1");
  compose.headers.Set("X-Auth-Token", token);
  ASSERT_EQ(ofmf_.Handle(compose).status, 201);

  // An unauthenticated request with the (guessable) same id must hit the
  // 401, not the replay cache: auth runs before the dedupe lookup.
  http::Request stolen = compose;
  stolen.headers.Remove("X-Auth-Token");
  const http::Response denied = ofmf_.Handle(stolen);
  EXPECT_EQ(denied.status, 401);
  EXPECT_EQ(denied.headers.GetOr("Location", ""), "");

  // A *different* session reusing the id gets its own execution (the cache
  // is keyed by token), not the first session's cached Location.
  const http::Response other = ofmf_.Handle(http::MakeJsonRequest(
      http::Method::kPost, core::kSessions,
      Json::Obj({{"UserName", "admin"}, {"Password", "ofmf"}})));
  ASSERT_EQ(other.status, 201);
  http::Request cross = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "mine"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(1)}})})}})}}));
  cross.headers.Set("X-Request-Id", "guessable-1");
  cross.headers.Set("X-Auth-Token", other.headers.GetOr("X-Auth-Token", ""));
  const http::Response fresh = ofmf_.Handle(cross);
  ASSERT_EQ(fresh.status, 201);
  EXPECT_NE(fresh.headers.GetOr("Location", ""),
            ofmf_.Handle(compose).headers.GetOr("Location", ""));
  EXPECT_EQ(ofmf_.tree().Members(core::kSystems)->size(), 2u);
}

TEST_F(ResilientServiceTest, ReplayWithDifferentBodyIsRejectedNotReplayed) {
  http::Request first = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "one"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(0)}})})}})}}));
  first.headers.Set("X-Request-Id", "reused");
  ASSERT_EQ(ofmf_.Handle(first).status, 201);
  // Same key, different request: answering with the cached 201 would hand
  // back the wrong system, so the service refuses outright.
  http::Request second = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      Json::Obj({{"Name", "two"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(1)}})})}})}}));
  second.headers.Set("X-Request-Id", "reused");
  EXPECT_EQ(ofmf_.Handle(second).status, 400);
  EXPECT_EQ(ofmf_.tree().Members(core::kSystems)->size(), 1u);
}

TEST_F(ResilientServiceTest, RequestIdsDistinctAcrossClients) {
  // Two clients (think: two manager processes against one TCP service) must
  // never emit colliding idempotency keys, or the server would replay one
  // client's response for the other's unrelated POST.
  auto inner_a = std::make_unique<ScriptedClient>();
  auto inner_b = std::make_unique<ScriptedClient>();
  ScriptedClient* raw_a = inner_a.get();
  ScriptedClient* raw_b = inner_b.get();
  composability::OfmfClient a(std::move(inner_a));
  composability::OfmfClient b(std::move(inner_b));
  (void)a.Post("/x", Json::MakeObject());
  (void)b.Post("/x", Json::MakeObject());
  const std::string id_a = raw_a->last_request_.headers.GetOr("X-Request-Id", "");
  const std::string id_b = raw_b->last_request_.headers.GetOr("X-Request-Id", "");
  EXPECT_FALSE(id_a.empty());
  EXPECT_FALSE(id_b.empty());
  EXPECT_NE(id_a, id_b);  // both are this process's first POST
}

TEST_F(ResilientServiceTest, RestorePutsBackPreOutageStatusNotBlanketOk) {
  // n2 was legitimately unhealthy before the outage; recovery must not
  // launder it to OK.
  const std::string sick_uri = core::FabricUri("IB") + "/Endpoints/n2";
  ASSERT_TRUE(ofmf_.tree()
                  .Patch(sick_uri, Json::Obj({{"Status",
                                               Json::Obj({{"State", "Enabled"},
                                                          {"Health", "Warning"}})}}))
                  .ok());
  faults_->ArmWindow("agent.IB", FaultKind::kCrash, 1, 6);
  const std::string connections_uri = core::FabricUri("IB") + "/Connections";
  core::CircuitBreaker* breaker = *ofmf_.BreakerForFabric("IB");
  int calls = 0;
  while (breaker->state() != core::BreakerState::kClosed && calls < 60) {
    ++calls;
    (void)client_->Post(connections_uri, ConnectionBody());
  }
  ASSERT_EQ(breaker->state(), core::BreakerState::kClosed);
  ASSERT_FALSE(ofmf_.FabricDegraded("IB"));
  const Json healthy = *client_->Get(core::FabricUri("IB") + "/Endpoints/n1");
  EXPECT_EQ(healthy.at("Status").GetString("Health"), "OK");
  const Json sick = *client_->Get(sick_uri);
  EXPECT_EQ(sick.at("Status").GetString("State"), "Enabled");
  EXPECT_EQ(sick.at("Status").GetString("Health"), "Warning");
}

TEST_F(ResilientServiceTest, LostResponseRetryConvergesToOneSystem) {
  // Full decorated stack: OfmfClient -> RetryingClient -> FaultyClient ->
  // in-process service. The compose response is lost on the wire; the
  // client's stamped X-Request-Id lets the retry replay the stored response
  // instead of composing a second system.
  auto chaos = std::make_shared<FaultInjector>(11);
  chaos->ArmNthCall("http.client", FaultKind::kDropResponse, 1);
  http::RetryPolicy policy;
  policy.base_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  auto stack = std::make_unique<http::RetryingClient>(
      std::make_unique<http::FaultyClient>(
          std::make_unique<http::InProcessClient>(ofmf_.Handler()), chaos),
      policy);
  composability::OfmfClient client(std::move(stack));

  auto system = client.Post(
      core::kSystems,
      Json::Obj({{"Name", "lossy"},
                 {"Links", Json::Obj({{"ResourceBlocks",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", BlockUri(1)}})})}})}}));
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(chaos->fires("http.client"), 1u);
  EXPECT_EQ(ofmf_.tree().Members(core::kSystems)->size(), 1u);
  EXPECT_EQ(ofmf_.CollectResilience().replayed_posts, 1u);
}

TEST_F(ResilientServiceTest, ComposeRollsBackClaimsOnFailure) {
  // blk2 is already taken; composing {blk0, blk2} must fail and leave blk0
  // Unused with no partial system behind.
  ASSERT_TRUE(ofmf_.composition().Compose("holder", {BlockUri(2)}).ok());
  const auto before_systems = ofmf_.tree().Members(core::kSystems)->size();
  auto result = ofmf_.composition().Compose("doomed", {BlockUri(0), BlockUri(2)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(*ofmf_.composition().BlockState(BlockUri(0)), "Unused");
  EXPECT_EQ(ofmf_.tree().Members(core::kSystems)->size(), before_systems);

  // Duplicate block references are rejected up front.
  EXPECT_EQ(ofmf_.composition()
                .Compose("dup", {BlockUri(0), BlockUri(0)})
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(ResilientServiceTest, DecomposeIsIdempotent) {
  auto system = ofmf_.composition().Compose("once", {BlockUri(3)});
  ASSERT_TRUE(system.ok());
  EXPECT_TRUE(ofmf_.composition().Decompose(*system).ok());
  EXPECT_TRUE(ofmf_.composition().Decompose(*system).ok());  // converged
  EXPECT_EQ(*ofmf_.composition().BlockState(BlockUri(3)), "Unused");
}

TEST_F(ResilientServiceTest, EtagCacheForgetsOwnMutations) {
  // Delete-then-recreate at one URI restarts the version counter, so a
  // client that kept the old ETag would see a spurious 304 and serve the
  // previous resource's body. Forget() on own mutations prevents it.
  const std::string uri = "/redfish/v1/Chassis/rack1";
  ASSERT_TRUE(ofmf_.tree()
                  .Create(uri, "#Chassis.v1_0_0.Chassis", Json::Obj({{"Name", "old"}}))
                  .ok());
  EXPECT_EQ(client_->Get(uri)->GetString("Name"), "old");  // cached, W/"1"
  ASSERT_TRUE(client_->Delete(uri).ok());                  // forgets the entry
  ASSERT_TRUE(ofmf_.tree()
                  .Create(uri, "#Chassis.v1_0_0.Chassis", Json::Obj({{"Name", "new"}}))
                  .ok());
  EXPECT_EQ(client_->Get(uri)->GetString("Name"), "new");  // W/"1" again: no 304
}

}  // namespace
}  // namespace ofmf
