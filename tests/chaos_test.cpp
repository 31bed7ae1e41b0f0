// Seeded chaos harness: compose/expand/decompose churn under lossy
// transport, an agent crash window, and a fabric link flap — asserting the
// invariants that make the OFMF trustworthy under faults: no block is ever
// double-claimed or leaked, the circuit breaker always re-closes, and the
// fabric graph re-converges after a flap. Every random choice is seeded, so
// a failure replays identically.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agents/ib_agent.hpp"
#include "common/faults.hpp"
#include "composability/client.hpp"
#include "composability/manager.hpp"
#include "fabricsim/chaos.hpp"
#include "http/resilience.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "store/store.hpp"

namespace ofmf {
namespace {

using json::Json;

/// Churn length, overridable for soak runs: OFMF_CHAOS_ITERS=5000 ctest ...
int ChaosIters() {
  const char* raw = std::getenv("OFMF_CHAOS_ITERS");
  if (raw == nullptr) return 200;
  const int parsed = std::atoi(raw);
  return parsed > 0 ? parsed : 200;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() {
    // Redundant two-switch IB fabric: every endpoint pair has two disjoint
    // paths, so a single link flap degrades but never partitions.
    EXPECT_TRUE(graph_.AddVertex("sw0", fabricsim::VertexKind::kSwitch, 8).ok());
    EXPECT_TRUE(graph_.AddVertex("sw1", fabricsim::VertexKind::kSwitch, 8).ok());
    EXPECT_TRUE(graph_.AddVertex("n1", fabricsim::VertexKind::kDevice, 2).ok());
    EXPECT_TRUE(graph_.AddVertex("n2", fabricsim::VertexKind::kDevice, 2).ok());
    EXPECT_TRUE(graph_.Connect("n1", 0, "sw0", 0, {50, 200}).ok());
    EXPECT_TRUE(graph_.Connect("n2", 0, "sw0", 1, {50, 200}).ok());
    EXPECT_TRUE(graph_.Connect("n1", 1, "sw1", 0, {90, 100}).ok());
    EXPECT_TRUE(graph_.Connect("n2", 1, "sw1", 1, {90, 100}).ok());
    sm_ = std::make_unique<fabricsim::IbSubnetManager>(graph_);

    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    EXPECT_TRUE(ofmf_.RegisterAgent(std::make_shared<agents::IbAgent>("IB", *sm_)).ok());

    for (int i = 0; i < 8; ++i) {
      core::BlockCapability compute;
      compute.id = "cpu" + std::to_string(i);
      compute.block_type = "Compute";
      compute.cores = 8;
      compute.memory_gib = 32;
      auto uri = ofmf_.composition().RegisterBlock(compute);
      EXPECT_TRUE(uri.ok());
      all_blocks_.push_back(*uri);

      core::BlockCapability memory;
      memory.id = "mem" + std::to_string(i);
      memory.block_type = "Memory";
      memory.memory_gib = 16;
      uri = ofmf_.composition().RegisterBlock(memory);
      EXPECT_TRUE(uri.ok());
      all_blocks_.push_back(*uri);
    }

    // Client stack over a lossy wire: requests vanish on the way out
    // ("chaos.conn") and responses vanish on the way back ("chaos.rsp") —
    // the latter is the dangerous one, because the server DID act.
    chaos_ = std::make_shared<FaultInjector>(20260806);
    http::RetryPolicy policy;
    policy.max_attempts = 5;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 4;
    // Below the server's Retry-After grain (1 s): while the breaker is open
    // the client gives up on 503s immediately instead of sleeping.
    policy.deadline_ms = 150;
    client_ = std::make_unique<composability::OfmfClient>(
        std::make_unique<http::RetryingClient>(
            std::make_unique<http::FaultyClient>(
                std::make_unique<http::FaultyClient>(
                    std::make_unique<http::InProcessClient>(ofmf_.Handler()), chaos_,
                    "chaos.conn"),
                chaos_, "chaos.rsp"),
            policy));
    manager_ = std::make_unique<composability::ComposabilityManager>(*client_);
  }

  /// Server-side ground truth, checked with the injector quiesced: every
  /// composed system's blocks are mutually disjoint and Composed; everything
  /// else is Unused; nothing leaks in between.
  void CheckInvariants() {
    const bool was_enabled = chaos_->enabled();
    chaos_->set_enabled(false);
    auto systems = ofmf_.tree().Members(core::kSystems);
    ASSERT_TRUE(systems.ok());
    std::set<std::string> claimed;
    for (const std::string& system_uri : *systems) {
      auto blocks = ofmf_.composition().BlocksOf(system_uri);
      ASSERT_TRUE(blocks.ok()) << system_uri;
      for (const std::string& block_uri : *blocks) {
        EXPECT_TRUE(claimed.insert(block_uri).second)
            << block_uri << " claimed by two systems";
      }
    }
    for (const std::string& block_uri : claimed) {
      EXPECT_EQ(*ofmf_.composition().BlockState(block_uri), "Composed") << block_uri;
    }
    const std::vector<std::string> free = ofmf_.composition().FreeBlockUris();
    for (const std::string& block_uri : free) {
      EXPECT_EQ(claimed.count(block_uri), 0u) << block_uri << " both free and claimed";
    }
    EXPECT_EQ(claimed.size() + free.size(), all_blocks_.size());
    chaos_->set_enabled(was_enabled);
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

  fabricsim::FabricGraph graph_;
  std::unique_ptr<fabricsim::IbSubnetManager> sm_;
  core::OfmfService ofmf_;
  std::shared_ptr<FaultInjector> chaos_;
  std::unique_ptr<composability::OfmfClient> client_;
  std::unique_ptr<composability::ComposabilityManager> manager_;
  std::vector<std::string> all_blocks_;
};

TEST_F(ChaosTest, ComposeChurnUnderLossyTransportLeaksNothing) {
  chaos_->ArmProbability("chaos.conn", FaultKind::kDropConnection, 0.05);
  chaos_->ArmProbability("chaos.rsp", FaultKind::kDropResponse, 0.05);

  std::vector<std::string> live;  // systems this client KNOWS it composed
  int composed = 0, compose_failed = 0, expanded = 0, decomposed = 0;
  const int iters = ChaosIters();
  for (int i = 0; i < iters; ++i) {
    switch (i % 3) {
      case 0: {  // compose one compute block's worth
        composability::CompositionRequest request;
        request.name = "job" + std::to_string(i);
        request.cores = 8;
        auto system = manager_->Compose(request);
        if (system.ok()) {
          live.push_back(system->system_uri);
          ++composed;
        } else {
          ++compose_failed;
        }
        break;
      }
      case 1: {  // grow the oldest live system by one memory block
        if (!live.empty() && manager_->ExpandMemory(live.front(), 8).ok()) ++expanded;
        break;
      }
      case 2: {  // retire the oldest once a few are live
        if (live.size() > 2 && manager_->Decompose(live.front()).ok()) {
          live.erase(live.begin());
          ++decomposed;
        }
        break;
      }
    }
    if (i % 10 == 9) CheckInvariants();
  }
  // The retry stack should absorb nearly all injected faults; composes only
  // fail hard when 5 straight attempts are unlucky or the pool is empty.
  EXPECT_GT(composed, iters / 10);
  EXPECT_GT(chaos_->total_fires(), static_cast<std::uint64_t>(iters) / 4);
  CheckInvariants();

  // Quiesce and drain: every system the SERVER knows about (including any
  // whose create response was lost) decomposes cleanly, and every block
  // returns to the free pool — nothing leaked, nothing stuck.
  chaos_->set_enabled(false);
  auto systems = ofmf_.tree().Members(core::kSystems);
  ASSERT_TRUE(systems.ok());
  for (const std::string& system_uri : *systems) {
    EXPECT_TRUE(manager_->Decompose(system_uri).ok()) << system_uri;
  }
  EXPECT_EQ(ofmf_.tree().Members(core::kSystems)->size(), 0u);
  EXPECT_EQ(ofmf_.composition().FreeBlockUris().size(), all_blocks_.size());

  // The churn must leave legible latency telemetry behind: the
  // RequestLatency MetricReport carries non-zero p50/p99 for the Systems
  // endpoint the churn hammered (GET of the report refreshes it lazily).
  auto latency_report = client_->Get(core::TelemetryService::ReportUri("RequestLatency"));
  ASSERT_TRUE(latency_report.ok()) << latency_report.status().message();
  double systems_p50 = 0.0, systems_p99 = 0.0;
  for (const Json& value : latency_report->at("MetricValues").as_array()) {
    const std::string id = value.GetString("MetricId");
    if (id == "http.latency.POST.Systems.p50") systems_p50 = value.GetDouble("MetricValue");
    if (id == "http.latency.POST.Systems.p99") systems_p99 = value.GetDouble("MetricValue");
  }
  EXPECT_GT(systems_p50, 0.0);
  EXPECT_GT(systems_p99, 0.0);
  EXPECT_GE(systems_p99, systems_p50);

  SUCCEED() << "composed=" << composed << " failed=" << compose_failed
            << " expanded=" << expanded << " decomposed=" << decomposed;
}

TEST_F(ChaosTest, AgentCrashWindowBreakerReclosesAndReportIsPublished) {
  // The IB agent is dead for calls 1..5; the breaker opens after 3 failures,
  // rejects during cooldown, then a half-open probe lands after recovery.
  auto faults = std::make_shared<FaultInjector>(99);
  ofmf_.set_fault_injector(faults);
  faults->ArmWindow("agent.IB", FaultKind::kCrash, 1, 6);

  core::CircuitBreaker* breaker = *ofmf_.BreakerForFabric("IB");
  const std::string connections_uri = core::FabricUri("IB") + "/Connections";
  int attempts = 0;
  while (breaker->state() != core::BreakerState::kClosed ||
         breaker->stats().opens == 0) {
    ASSERT_LT(++attempts, 50) << "breaker never re-closed";
    (void)client_->Post(connections_uri, ConnectionBody());
  }
  EXPECT_GE(breaker->stats().opens, 1u);
  EXPECT_GE(breaker->stats().closes, 1u);
  EXPECT_FALSE(ofmf_.FabricDegraded("IB"));

  const Json report = *client_->Get(core::TelemetryService::ReportUri("Resilience"));
  double opens = 0;
  for (const Json& value : report.at("MetricValues").as_array()) {
    if (value.GetString("MetricId") == "BreakerOpens.IB") {
      opens = value.GetDouble("MetricValue");
    }
  }
  EXPECT_GE(opens, 1.0);
}

TEST_F(ChaosTest, CrashMidChurnThenRecoveryRestoresConsistency) {
  // Durable churn: the store's journal commits crash (injected) somewhere in
  // the middle of lossy compose/decompose traffic. A successor service
  // recovering from the surviving prefix must come up with the composition
  // invariants intact and keep serving.
  const std::string dir = ::testing::TempDir() + "ofmf_chaos_store";
  std::filesystem::remove_all(dir);
  store::StoreOptions options;
  options.dir = dir;
  options.group_commit_records = 4;  // commits interleave tightly with churn
  auto persistent = store::PersistentStore::Open(options);
  ASSERT_TRUE(persistent.ok());
  auto store_faults = std::make_shared<FaultInjector>(31337);
  (*persistent)->set_fault_injector(store_faults);
  ASSERT_TRUE(ofmf_.EnableDurability(std::move(*persistent)).ok());

  chaos_->ArmProbability("chaos.rsp", FaultKind::kDropResponse, 0.05);
  store_faults->ArmNthCall("store.commit.crash", FaultKind::kCrash, 12);

  std::vector<std::string> live;
  const int iters = std::min(ChaosIters(), 120);
  for (int i = 0; i < iters; ++i) {
    if (i % 3 != 2) {
      composability::CompositionRequest request;
      request.name = "job" + std::to_string(i);
      request.cores = 8;
      if (auto system = manager_->Compose(request); system.ok()) {
        live.push_back(system->system_uri);
      }
    } else if (live.size() > 1 && manager_->Decompose(live.front()).ok()) {
      live.erase(live.begin());
    }
  }
  ASSERT_TRUE(ofmf_.store()->crashed()) << "the injected commit crash never fired";

  // Successor process: recover from what actually reached the journal, let
  // the agent re-publish its live fabric, reconcile, and check ground truth.
  core::OfmfService successor;
  ASSERT_TRUE(successor.Bootstrap().ok());
  auto reopened = store::PersistentStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto report = successor.EnableDurability(std::move(*reopened));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->had_snapshot);
  ASSERT_TRUE(
      successor.RegisterAgent(std::make_shared<agents::IbAgent>("IB", *sm_)).ok());
  auto reconciled = successor.ReconcileWithAgents();
  ASSERT_TRUE(reconciled.ok());

  auto systems = successor.tree().Members(core::kSystems);
  ASSERT_TRUE(systems.ok());
  std::set<std::string> claimed;
  for (const std::string& system_uri : *systems) {
    auto blocks = successor.composition().BlocksOf(system_uri);
    ASSERT_TRUE(blocks.ok()) << system_uri;
    ASSERT_FALSE(blocks->empty()) << system_uri << " recovered half-composed";
    for (const std::string& block_uri : *blocks) {
      EXPECT_TRUE(claimed.insert(block_uri).second)
          << block_uri << " claimed by two recovered systems";
      EXPECT_EQ(*successor.composition().BlockState(block_uri), "Composed");
    }
  }
  const std::vector<std::string> free = successor.composition().FreeBlockUris();
  for (const std::string& block_uri : free) {
    EXPECT_EQ(claimed.count(block_uri), 0u) << block_uri;
  }
  EXPECT_EQ(claimed.size() + free.size(), all_blocks_.size());

  // Still a live control plane: composition works post-recovery.
  if (!free.empty()) {
    composability::OfmfClient direct(
        std::make_unique<http::InProcessClient>(successor.Handler()));
    auto post_recovery = direct.Post(
        core::kSystems,
        Json::Obj({{"Name", "post-recovery"},
                   {"Links",
                    Json::Obj({{"ResourceBlocks",
                                Json::Arr({Json::Obj({{"@odata.id", free[0]}})})}})}}));
    EXPECT_TRUE(post_recovery.ok());
  }
}

TEST_F(ChaosTest, SubscriberFlappingUnderChurnStaysFaultIsolated) {
  // Event subscribers come and go mid-churn while their endpoint fails every
  // third push. Fault isolation means none of that may leak back into the
  // control plane: composition invariants hold, the publish path performs no
  // network sends, and healthy pushes still land.
  auto delivered = std::make_shared<std::atomic<int>>(0);
  auto push_calls = std::make_shared<std::atomic<int>>(0);
  ofmf_.events().set_client_factory([delivered, push_calls](const std::string&) {
    return std::make_unique<http::InProcessClient>(
        [delivered, push_calls](const http::Request&) {
          if (++*push_calls % 3 == 0) return http::MakeTextResponse(503, "flap");
          ++*delivered;
          return http::MakeEmptyResponse(204);
        });
  });
  core::DeliveryConfig delivery;
  delivery.base_backoff_ms = 1;
  delivery.max_backoff_ms = 4;
  delivery.breaker_cooldown_ms = 2;
  ofmf_.events().ConfigureDelivery(delivery);

  chaos_->ArmProbability("chaos.rsp", FaultKind::kDropResponse, 0.05);

  std::vector<std::string> live;
  std::vector<std::string> subscriptions;
  int next_subscriber = 0;
  const int iters = std::min(ChaosIters(), 150);
  for (int i = 0; i < iters; ++i) {
    if (i % 5 == 0) {  // a new push subscriber joins mid-churn
      auto uri = ofmf_.events().Subscribe(Json::Obj(
          {{"Destination", "http://flap" + std::to_string(next_subscriber++) + "/events"},
           {"Protocol", "Redfish"}}));
      ASSERT_TRUE(uri.ok());
      subscriptions.push_back(*uri);
    }
    if (i % 7 == 6 && !subscriptions.empty()) {  // and an old one leaves
      ASSERT_TRUE(ofmf_.events().Unsubscribe(subscriptions.front()).ok());
      subscriptions.erase(subscriptions.begin());
    }
    if (i % 3 != 2) {
      composability::CompositionRequest request;
      request.name = "job" + std::to_string(i);
      request.cores = 8;
      if (auto system = manager_->Compose(request); system.ok()) {
        live.push_back(system->system_uri);
      }
    } else if (live.size() > 1 && manager_->Decompose(live.front()).ok()) {
      live.erase(live.begin());
    }
    if (i % 10 == 9) CheckInvariants();
  }

  chaos_->set_enabled(false);
  ASSERT_TRUE(ofmf_.events().FlushDelivery(15000));
  CheckInvariants();

  // Fault isolation, measured: no publish ever touched the network, the
  // flaky endpoints never wedged the engine, and healthy pushes got through.
  EXPECT_EQ(ofmf_.events().publish_path_sends(), 0u);
  EXPECT_GT(delivered->load(), 0);
  const core::DeliverySnapshot snapshot = ofmf_.events().CollectDelivery();
  EXPECT_EQ(snapshot.total_queued, 0u);
  EXPECT_GT(snapshot.delivered, 0u);
}

TEST_F(ChaosTest, LinkFlapHealsAndGraphReconverges) {
  chaos_->ArmNthCall("fabric.flap", FaultKind::kDropConnection, 1);
  fabricsim::LinkFlapper flapper(graph_, chaos_);

  const std::size_t live_before = [&] {
    std::size_t up = 0;
    for (const auto& link : graph_.Links()) up += link.up ? 1 : 0;
    return up;
  }();
  ASSERT_TRUE(flapper.Tick());  // rule fires: one link goes down
  ASSERT_TRUE(flapper.downed_link().has_value());
  std::size_t live_during = 0;
  for (const auto& link : graph_.Links()) live_during += link.up ? 1 : 0;
  EXPECT_EQ(live_during, live_before - 1);

  EXPECT_FALSE(flapper.Tick());  // rule spent: heals, nothing new goes down
  EXPECT_FALSE(flapper.downed_link().has_value());
  std::size_t live_after = 0;
  for (const auto& link : graph_.Links()) live_after += link.up ? 1 : 0;
  EXPECT_EQ(live_after, live_before);
  EXPECT_EQ(flapper.flaps(), 1u);
}

TEST_F(ChaosTest, SessionChurnAcrossTenantsKeepsBindingsConsistent) {
  // Three tenants, one bound user each. Threads then churn sessions for a
  // random mix of bound and unbound users while others authenticate — the
  // token→tenant mapping the reactor's classifier relies on must never skew.
  for (int i = 0; i < 3; ++i) {
    core::TenantInfo tenant;
    tenant.id = "t" + std::to_string(i);
    tenant.qos_class = i == 0 ? "Guaranteed" : "BestEffort";
    tenant.weight = static_cast<std::uint32_t>(i + 1);
    tenant.users = {"u" + std::to_string(i)};
    ASSERT_TRUE(ofmf_.sessions().CreateTenant(tenant).ok());
    ofmf_.sessions().AddUser("u" + std::to_string(i), "pw");
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(20260807 + t));
      for (int i = 0; i < 200; ++i) {
        const int pick = static_cast<int>(rng() % 4);
        const std::string user = pick == 3 ? "admin" : "u" + std::to_string(pick);
        const std::string expected = pick == 3 ? "" : "t" + std::to_string(pick);
        auto session =
            ofmf_.sessions().CreateSession(user, pick == 3 ? "ofmf" : "pw");
        if (!session.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (session->tenant != expected ||
            ofmf_.sessions().TenantOfToken(session->token) != expected) {
          mismatches.fetch_add(1);
        }
        if (rng() % 2 == 0) {
          if (!ofmf_.sessions().DeleteSession(session->id).ok()) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Quiesced ground truth: every surviving session still carries its user's
  // binding and authenticates to the same tenant.
  for (const core::SessionInfo& session : ofmf_.sessions().ExportSessions()) {
    EXPECT_EQ(session.tenant, ofmf_.sessions().TenantOfUser(session.user));
    auto live = ofmf_.sessions().Authenticate(session.token);
    ASSERT_TRUE(live.has_value());
    EXPECT_EQ(live->tenant, session.tenant);
  }
}

}  // namespace
}  // namespace ofmf
