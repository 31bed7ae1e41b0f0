// Federation tier tests: consistent-hash routing, the directory's epoch/ETag
// protocol and liveness, scatter-gather collection aggregation with stable
// cross-shard paging, partial-failure behavior (shard death mid-aggregation
// and mid-two-phase-compose), idempotent compose retry, and the pooled
// keep-alive event delivery client. Runs under the TSan/ASan CI jobs.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/faults.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "federation/directory.hpp"
#include "federation/directory_client.hpp"
#include "federation/router.hpp"
#include "federation/routing.hpp"
#include "http/resilience.hpp"
#include "http/server.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"

namespace ofmf {
namespace {

using federation::DirectoryClient;
using federation::DirectoryOptions;
using federation::DirectoryService;
using federation::FederationRouter;
using federation::HashRing;
using federation::RoutingTable;
using federation::ShardInfo;
using json::Json;
using ::testing::HasSubstr;

// ------------------------------------------------------------ ring + table --

RoutingTable MakeTable(std::vector<ShardInfo> shards, std::uint64_t epoch = 1) {
  RoutingTable table;
  table.epoch = epoch;
  table.shards = std::move(shards);
  std::sort(table.shards.begin(), table.shards.end(),
            [](const ShardInfo& a, const ShardInfo& b) { return a.id < b.id; });
  return table;
}

TEST(FederationRoutingTest, RoutingTableJsonRoundTrip) {
  const RoutingTable table =
      MakeTable({{"s1", 8081, true}, {"s2", 8082, false}}, 7);
  const auto parsed = RoutingTable::FromJson(table.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->epoch, 7u);
  ASSERT_EQ(parsed->shards.size(), 2u);
  EXPECT_EQ(parsed->shards[0].id, "s1");
  EXPECT_EQ(parsed->shards[0].port, 8081);
  EXPECT_TRUE(parsed->shards[0].alive);
  EXPECT_EQ(parsed->shards[1].id, "s2");
  EXPECT_FALSE(parsed->shards[1].alive);
  EXPECT_EQ(parsed->AliveCount(), 1u);
}

TEST(FederationRoutingTest, RingPlacementIgnoresLivenessAndEpoch) {
  const RoutingTable all_alive =
      MakeTable({{"a", 1, true}, {"b", 2, true}, {"c", 3, true}}, 1);
  const RoutingTable b_dead =
      MakeTable({{"a", 1, true}, {"b", 2, false}, {"c", 3, true}}, 9);
  const HashRing ring1(all_alive);
  const HashRing ring2(b_dead);
  std::set<std::string> owners;
  for (int i = 0; i < 512; ++i) {
    const std::string key = "fabric:fab" + std::to_string(i);
    const auto owner1 = ring1.OwnerOf(key);
    const auto owner2 = ring2.OwnerOf(key);
    ASSERT_TRUE(owner1.has_value());
    // A liveness flip must not re-home any key.
    EXPECT_EQ(*owner1, *owner2) << key;
    owners.insert(*owner1);
  }
  // 512 keys over 3 shards with 128 vnodes each: every shard owns some.
  EXPECT_EQ(owners.size(), 3u);
}

TEST(FederationRoutingTest, ShardKeyForPath) {
  EXPECT_EQ(federation::ShardKeyForPath("/redfish/v1/Fabrics/ib0"), "fabric:ib0");
  EXPECT_EQ(federation::ShardKeyForPath("/redfish/v1/Fabrics/ib0/Endpoints/n1"),
            "fabric:ib0");
  EXPECT_FALSE(federation::ShardKeyForPath("/redfish/v1/Fabrics").has_value());
  EXPECT_FALSE(federation::ShardKeyForPath("/redfish/v1/Systems/x").has_value());
  EXPECT_FALSE(federation::ShardKeyForPath("/redfish/v1").has_value());
}

// -------------------------------------------------------------- directory --

TEST(DirectoryTest, EpochAdvancesOnMembershipAndLivenessFlips) {
  DirectoryOptions options;
  options.heartbeat_timeout_ms = 100;
  DirectoryService directory(options);
  EXPECT_EQ(directory.Register("s1", 8081), 1u);
  EXPECT_EQ(directory.Register("s2", 8082), 2u);
  // Re-registration on the same port is a heartbeat, not a membership change.
  EXPECT_EQ(directory.Register("s1", 8081), 2u);
  // ... but a port change re-homes the shard's transport: epoch bump.
  EXPECT_EQ(directory.Register("s1", 9091), 3u);
  EXPECT_EQ(directory.Heartbeat("ghost").code(), ErrorCode::kNotFound);

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const RoutingTable dead = directory.Table();
  EXPECT_GT(dead.epoch, 3u);  // both liveness flips bumped it
  EXPECT_EQ(dead.AliveCount(), 0u);

  ASSERT_TRUE(directory.Heartbeat("s2").ok());
  const RoutingTable revived = directory.Table();
  EXPECT_GT(revived.epoch, dead.epoch);
  ASSERT_NE(revived.Find("s2"), nullptr);
  EXPECT_TRUE(revived.Find("s2")->alive);
  ASSERT_NE(revived.Find("s1"), nullptr);
  EXPECT_FALSE(revived.Find("s1")->alive);
}

TEST(DirectoryTest, ClientRevalidatesWithEtagAndGets304) {
  DirectoryService directory;
  DirectoryClient client(
      std::make_unique<http::InProcessClient>(directory.Handler()),
      /*max_age_ms=*/0);
  directory.Register("s1", 8081);

  const auto first = client.Table();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->shards.size(), 1u);
  const auto second = client.Table();  // stale by max_age 0: revalidates
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->epoch, first->epoch);
  EXPECT_GE(client.revalidations_sent(), 1u);
  EXPECT_GE(client.revalidations_not_modified(), 1u);

  directory.Register("s2", 8082);  // epoch bump invalidates the ETag
  const auto third = client.Table();
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->epoch, first->epoch);
  EXPECT_EQ(third->shards.size(), 2u);
}

TEST(DirectoryTest, ClientServesStaleCacheThroughDirectoryOutage) {
  DirectoryService directory;
  auto faults = std::make_shared<FaultInjector>(7);
  DirectoryClient client(
      std::make_unique<http::FaultyClient>(
          std::make_unique<http::InProcessClient>(directory.Handler()), faults),
      /*max_age_ms=*/0);
  directory.Register("s1", 8081);
  const auto warm = client.Table();
  ASSERT_TRUE(warm.ok());

  faults->ArmProbability("http.client", FaultKind::kDropConnection, 1.0);
  const auto stale = client.Table();
  ASSERT_TRUE(stale.ok()) << "directory outage must serve the cached table";
  EXPECT_EQ(stale->epoch, warm->epoch);
  EXPECT_EQ(stale->shards.size(), 1u);
}

// ------------------------------------------------------- federated fixture --

/// A directory + N real TCP shards + a router, with disjoint block
/// inventories per shard ("b<shard>-<i>").
class FederationFixture : public ::testing::Test {
 protected:
  struct Shard {
    std::string id;
    core::OfmfService service;
    http::TcpServer server;
  };

  void StartShards(int count, int blocks_per_shard,
                   const http::ServerOptions& options = http::ServerOptions()) {
    for (int s = 0; s < count; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->id = "s" + std::to_string(s + 1);
      ASSERT_TRUE(shard->service.Bootstrap().ok());
      shard->service.set_shard_identity(shard->id);
      for (int i = 0; i < blocks_per_shard; ++i) {
        core::BlockCapability block;
        block.id = "b" + shard->id + "-" + std::to_string(i);
        block.block_type = "Compute";
        block.cores = 8;
        block.memory_gib = 32;
        ASSERT_TRUE(shard->service.composition().RegisterBlock(block).ok());
      }
      http::ServerHandler handler = shard->service.Handler();
      if (before_shard_handles_) {
        handler = [hook = before_shard_handles_, handler](const http::Request& request) {
          hook(request);
          return handler(request);
        };
      }
      ASSERT_TRUE(shard->server.Start(handler, 0, options).ok());
      directory_.Register(shard->id, shard->server.port());
      shards_.push_back(std::move(shard));
    }
    router_ = std::make_unique<FederationRouter>(std::make_shared<DirectoryClient>(
        std::make_unique<http::InProcessClient>(directory_.Handler()),
        /*max_age_ms=*/0));
    router_->set_fault_injector(faults_);
  }

  void TearDown() override {
    for (auto& shard : shards_) shard->server.Stop();
  }

  Shard& shard(const std::string& id) {
    for (auto& s : shards_) {
      if (s->id == id) return *s;
    }
    ADD_FAILURE() << "no shard " << id;
    return *shards_.front();
  }

  http::Response Route(http::Request request) { return router_->Route(request); }

  Json GetJson(const std::string& target, int expect_status = 200) {
    const http::Response response =
        Route(http::MakeRequest(http::Method::kGet, target));
    EXPECT_EQ(response.status, expect_status) << target << ": " << response.body.view();
    auto doc = json::Parse(response.body.view());
    EXPECT_TRUE(doc.ok()) << target;
    return doc.ok() ? std::move(doc.value()) : Json();
  }

  std::string BlockUri(const std::string& shard_id, int i) {
    return std::string(core::kResourceBlocks) + "/b" + shard_id + "-" +
           std::to_string(i);
  }

  std::string BlockState(const std::string& shard_id, const std::string& uri) {
    http::InProcessClient direct(shard(shard_id).service.Handler());
    const auto response = direct.Send(http::MakeRequest(http::Method::kGet, uri));
    if (!response.ok() || !response.value().ok()) return "<unreachable>";
    auto doc = json::Parse(response.value().body.view());
    if (!doc.ok()) return "<malformed>";
    return doc.value().at("CompositionStatus").GetString("CompositionState");
  }

  std::vector<std::string> Members(const Json& collection) {
    std::vector<std::string> uris;
    const Json& members = collection.at("Members");
    if (members.is_array()) {
      for (const Json& member : members.as_array()) {
        uris.push_back(member.GetString("@odata.id"));
      }
    }
    return uris;
  }

  Json ComposeBody(const std::vector<std::string>& block_uris,
                   const std::string& name = "fed-job") {
    json::Array refs;
    for (const std::string& uri : block_uris) {
      refs.push_back(Json::Obj({{"@odata.id", uri}}));
    }
    return Json::Obj(
        {{"Name", name},
         {"Links", Json::Obj({{"ResourceBlocks", Json(std::move(refs))}})}});
  }

  DirectoryService directory_;
  // Set before StartShards: runs in each shard's server ahead of its service.
  std::function<void(const http::Request&)> before_shard_handles_;
  std::shared_ptr<FaultInjector> faults_ = std::make_shared<FaultInjector>(2026);
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<FederationRouter> router_;
};

// ------------------------------------------------------ routing + fan-out --

TEST_F(FederationFixture, FabricPathsRouteToRingOwner) {
  StartShards(2, 0);
  const HashRing ring(directory_.Table());
  // Create each fabric on the shard the ring says owns it, then read it back
  // through the router: the request must land on that same shard.
  for (int i = 0; i < 4; ++i) {
    const std::string fabric_id = "fab" + std::to_string(i);
    const auto owner = ring.OwnerOf("fabric:" + fabric_id);
    ASSERT_TRUE(owner.has_value());
    ASSERT_TRUE(shard(*owner).service
                    .CreateFabricSkeleton(fabric_id, "NVMeoF", *owner)
                    .ok());
    const Json fabric = GetJson(core::FabricUri(fabric_id));
    EXPECT_EQ(fabric.GetString("Id"), fabric_id);
  }
  EXPECT_GE(router_->stats().forwarded, 4u);
}

TEST_F(FederationFixture, ServiceRootCarriesFederationView) {
  StartShards(2, 0);
  const Json root = GetJson(core::kServiceRoot);
  const Json* federation = json::ResolvePointerRef(root, "/Oem/Ofmf/Federation");
  ASSERT_NE(federation, nullptr);
  EXPECT_EQ(federation->GetInt("Shards"), 2);
  EXPECT_EQ(federation->GetInt("AliveShards"), 2);
  EXPECT_GT(federation->GetInt("Epoch"), 0);
}

TEST_F(FederationFixture, AggregatedCollectionMergesAllShards) {
  StartShards(2, 2);
  const Json merged = GetJson(core::kResourceBlocks);
  EXPECT_EQ(merged.GetInt("Members@odata.count"), 4);
  const auto members = Members(merged);
  ASSERT_EQ(members.size(), 4u);
  EXPECT_THAT(members, ::testing::UnorderedElementsAre(
                           BlockUri("s1", 0), BlockUri("s1", 1),
                           BlockUri("s2", 0), BlockUri("s2", 1)));
  EXPECT_GE(router_->stats().aggregations, 1u);
}

TEST_F(FederationFixture, PagingWalksShardsWithStableContinuation) {
  StartShards(3, 2);  // 6 members federation-wide
  std::vector<std::string> walked;
  std::string target = std::string(core::kResourceBlocks) + "?$top=2";
  int pages = 0;
  while (!target.empty() && pages++ < 10) {
    const Json page = GetJson(target);
    EXPECT_EQ(page.GetInt("Members@odata.count"), 6) << "count is the federation total";
    for (const std::string& uri : Members(page)) walked.push_back(uri);
    target = page.GetString("@odata.nextLink");
    if (!target.empty()) {
      EXPECT_THAT(target, HasSubstr("$fedskip=")) << "continuation must be shard-stable";
      EXPECT_THAT(target, HasSubstr("$top=2")) << "page size must survive the walk";
    }
  }
  ASSERT_EQ(walked.size(), 6u);
  // No duplicates, nothing missed: the walk is the exact member set.
  const std::set<std::string> unique(walked.begin(), walked.end());
  EXPECT_EQ(unique.size(), 6u);
  const Json full = GetJson(core::kResourceBlocks);
  EXPECT_THAT(Members(full), ::testing::UnorderedElementsAreArray(walked));
}

TEST_F(FederationFixture, GlobalSkipTranslatesAcrossShardBoundaries) {
  StartShards(2, 3);  // 6 members: s1 holds [0..2], s2 holds [3..5]
  const auto all = Members(GetJson(core::kResourceBlocks));
  ASSERT_EQ(all.size(), 6u);
  // A window straddling the shard boundary: global skip 2, top 3 -> [2..4].
  const Json window =
      GetJson(std::string(core::kResourceBlocks) + "?$skip=2&$top=3");
  const auto members = Members(window);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], all[2]);
  EXPECT_EQ(members[1], all[3]);
  EXPECT_EQ(members[2], all[4]);
}

// Paging values past the long long range are malformed input, not a reason
// to throw out of a pool worker: each answers 400 over the router's own TCP
// listener, and the router keeps serving aggregated GETs afterwards.
TEST_F(FederationFixture, OverflowingPagingValuesAnswer400AndRouterKeepsServing) {
  StartShards(2, 2);
  http::TcpServer front;
  ASSERT_TRUE(front.Start(router_->Handler(), 0).ok());
  http::TcpClient client(front.port());
  const std::string huge = "99999999999999999999";  // > INT64_MAX
  for (const std::string& option : {"$top=" + huge, "$skip=" + huge, "$fedskip=s1:" + huge}) {
    const std::string target = std::string(core::kResourceBlocks) + "?" + option;
    auto response = client.Send(http::MakeRequest(http::Method::kGet, target));
    ASSERT_TRUE(response.ok()) << option << ": " << response.status().ToString();
    EXPECT_EQ(response->status, 400) << option;
  }
  auto merged = client.Send(http::MakeRequest(http::Method::kGet, core::kResourceBlocks));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->status, 200);
  auto doc = json::Parse(merged->body.view());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetInt("Members@odata.count"), 4);
  front.Stop();
}

TEST_F(FederationFixture, ShardDeathMidScatterGatherAnnotatesOmission) {
  StartShards(2, 2);
  // Warm the per-shard count cache with one healthy aggregation.
  (void)GetJson(core::kResourceBlocks);
  faults_->ArmProbability("federation.shard.s2", FaultKind::kDropConnection, 1.0);

  const Json degraded = GetJson(core::kResourceBlocks);
  EXPECT_EQ(degraded.GetInt("Members@odata.count"), 2) << "only s1 contributed";
  EXPECT_EQ(Members(degraded).size(), 2u);
  const Json* oem = json::ResolvePointerRef(degraded, "/Oem/Ofmf");
  ASSERT_NE(oem, nullptr);
  EXPECT_EQ(oem->GetInt("MembersOmittedCount"), 2)
      << "the dead shard's last known count is surfaced";
  ASSERT_TRUE(oem->at("DegradedShards").is_array());
  ASSERT_EQ(oem->at("DegradedShards").as_array().size(), 1u);
  EXPECT_EQ(oem->at("DegradedShards").as_array()[0].as_string(), "s2");
  EXPECT_GE(router_->stats().degraded_aggregations, 1u);

  faults_->Disarm("federation.shard.s2");
  const Json healed = GetJson(core::kResourceBlocks);
  EXPECT_EQ(healed.GetInt("Members@odata.count"), 4);
  EXPECT_EQ(json::ResolvePointerRef(healed, "/Oem/Ofmf/MembersOmittedCount"), nullptr);
}

// --------------------------------------------------- cross-shard compose --

TEST_F(FederationFixture, CrossShardComposeClaimsAndDecomposeReleases) {
  StartShards(2, 2);
  const std::string local = BlockUri("s1", 0);
  const std::string remote = BlockUri("s2", 0);
  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({local, remote})));
  ASSERT_EQ(composed.status, 201) << composed.body.view();
  const std::string system_uri = composed.headers.GetOr("Location", "");
  ASSERT_FALSE(system_uri.empty());

  // Both blocks are Composed on their own shards.
  EXPECT_EQ(BlockState("s1", local), "Composed");
  EXPECT_EQ(BlockState("s2", remote), "Composed");

  // The system reads back through the router with both blocks' capability.
  const Json system = GetJson(system_uri);
  EXPECT_EQ(json::ResolvePointerRef(system, "/ProcessorSummary")->GetInt("CoreCount"),
            16);
  EXPECT_EQ(json::ResolvePointerRef(system, "/MemorySummary")
                ->GetDouble("TotalSystemMemoryGiB"),
            64.0);
  // The aggregated Systems collection shows it exactly once.
  const Json systems = GetJson(core::kSystems);
  EXPECT_EQ(systems.GetInt("Members@odata.count"), 1);

  // Decompose through the router: local AND remote claims are released.
  const http::Response deleted =
      Route(http::MakeRequest(http::Method::kDelete, system_uri));
  EXPECT_EQ(deleted.status, 204) << deleted.body.view();
  EXPECT_EQ(BlockState("s1", local), "Unused");
  EXPECT_EQ(BlockState("s2", remote), "Unused");
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 0);
  EXPECT_GE(router_->stats().cross_shard_composes, 1u);
  EXPECT_EQ(router_->stats().compose_rollbacks, 0u);
}

TEST_F(FederationFixture, ClaimFailureMidComposeRollsBackEarlierClaims) {
  StartShards(2, 2);
  const std::string first = BlockUri("s1", 0);   // sorted first: claimed first
  const std::string second = BlockUri("s2", 0);  // its shard dies
  // Warm the router's location cache so the compose path is deterministic.
  (void)GetJson(first);
  (void)GetJson(second);
  faults_->ArmProbability("federation.shard.s2", FaultKind::kDropConnection, 1.0);

  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({first, second})));
  EXPECT_EQ(composed.status, 503) << composed.body.view();
  faults_->Disarm("federation.shard.s2");

  // The claim taken on s1 before s2 died was rolled back: no leaked blocks,
  // no half-composed system anywhere.
  EXPECT_EQ(BlockState("s1", first), "Unused");
  EXPECT_EQ(BlockState("s2", second), "Unused");
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 0);
  EXPECT_GE(router_->stats().compose_rollbacks, 1u);
}

TEST_F(FederationFixture, HomeShardDeathAfterClaimsRollsBackEverything) {
  StartShards(2, 2);
  const std::string home_block = BlockUri("s1", 1);
  const std::string remote_block = BlockUri("s2", 1);
  (void)GetJson(home_block);
  (void)GetJson(remote_block);
  // Kill s1 (the home shard: owner of the first referenced block) starting at
  // its 3rd downstream call after arming: claim GET (1), claim PATCH (2)
  // succeed; the phase-2 compose POST (3) hits a dead shard.
  faults_->ArmWindow("federation.shard.s1", FaultKind::kDropConnection, 3, 1000);

  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({home_block, remote_block})));
  EXPECT_EQ(composed.status, 503) << composed.body.view();
  faults_->Disarm("federation.shard.s1");

  // The rollback ran after the home shard "recovered" is not needed: the
  // release PATCHes targeted both shards; s2's went through immediately, and
  // s1's claim release happened on the live connection only if reachable —
  // the router retries are the operator's job. What must hold now: the
  // remote block is free and no system exists.
  EXPECT_EQ(BlockState("s2", remote_block), "Unused");
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 0);
  EXPECT_GE(router_->stats().compose_rollbacks, 1u);
}

TEST_F(FederationFixture, ComposeRetryWithSameRequestIdIsIdempotent) {
  StartShards(2, 2);
  http::Request compose = http::MakeJsonRequest(
      http::Method::kPost, core::kSystems,
      ComposeBody({BlockUri("s1", 0), BlockUri("s2", 0)}, "retry-job"));
  compose.headers.Set("X-Request-Id", "fed-retry-1");

  const http::Response first = Route(compose);
  ASSERT_EQ(first.status, 201) << first.body.view();
  const http::Response second = Route(compose);
  ASSERT_EQ(second.status, 201) << second.body.view();
  EXPECT_EQ(first.headers.GetOr("Location", ""), second.headers.GetOr("Location", ""));
  // Exactly one system exists; the retry re-claimed idempotently (ClaimedBy
  // matches the transaction) and was answered from the replay cache.
  EXPECT_EQ(GetJson(core::kSystems).GetInt("Members@odata.count"), 1);
}

// ------------------------------------- cross-process traces + fleet tele --

/// Resets process-global trace state on scope exit so a failing assertion
/// cannot leak sampling into unrelated tests.
struct TraceSamplingGuard {
  ~TraceSamplingGuard() {
    trace::TraceRecorder::instance().set_sampling(0.0);
    trace::TraceRecorder::instance().set_retain_threshold_ns(0);
    trace::TraceRecorder::instance().Clear();
  }
};

std::string TraceDumpTarget() {
  return std::string(core::kServiceRoot) + "/Actions/OfmfService.TraceDump";
}

TEST_F(FederationFixture, CrossShardComposeProducesOneConnectedTrace) {
  TraceSamplingGuard guard;
  trace::TraceRecorder::instance().Clear();
  trace::TraceRecorder::instance().set_sampling(1.0);
  StartShards(2, 2);

  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({BlockUri("s1", 0), BlockUri("s2", 0)})));
  ASSERT_EQ(composed.status, 201) << composed.body.view();
  const std::string trace_hex = composed.headers.GetOr(trace::kTraceIdHeader, "");
  ASSERT_EQ(trace_hex.size(), 16u) << "router must echo the minted trace id";

  const http::Response dumped =
      Route(http::MakeJsonRequest(http::Method::kPost, TraceDumpTarget(),
                                  Json::Obj({{"TraceId", trace_hex}})));
  ASSERT_EQ(dumped.status, 200) << dumped.body.view();
  auto doc = json::Parse(dumped.body.view());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().GetString("TraceId"), trace_hex);

  // Spans from all three processes (router + both shards), attributed by
  // origin, assembled into ONE tree: exactly one root, no orphans.
  const Json& spans = doc.value().at("Spans");
  ASSERT_TRUE(spans.is_array());
  std::set<std::string> span_ids, origins, names;
  for (const Json& span : spans.as_array()) {
    span_ids.insert(span.GetString("SpanId"));
    origins.insert(span.GetString("Origin"));
    names.insert(span.GetString("Name"));
  }
  int roots = 0;
  for (const Json& span : spans.as_array()) {
    const std::string parent = span.GetString("ParentSpanId");
    if (parent == trace::IdToHex(0)) {
      ++roots;
    } else {
      EXPECT_TRUE(span_ids.count(parent))
          << span.GetString("Name") << " is orphaned from parent " << parent;
    }
  }
  EXPECT_EQ(roots, 1) << "assembled spans must form one connected tree";
  EXPECT_GE(origins.size(), 3u) << "router and both shards must contribute";
  EXPECT_TRUE(origins.count("router"));
  EXPECT_TRUE(origins.count("s1"));
  EXPECT_TRUE(origins.count("s2"));
  for (const char* required :
       {"router.route", "router.compose", "compose.claim", "compose.forward"}) {
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  }
  EXPECT_FALSE(doc.value().GetString("Tree").empty());
}

TEST_F(FederationFixture, FaultInjectedRollbackShowsCausalityInAssembledTrace) {
  TraceSamplingGuard guard;
  trace::TraceRecorder::instance().Clear();
  trace::TraceRecorder::instance().set_sampling(1.0);
  StartShards(2, 2);
  const std::string home_block = BlockUri("s1", 1);
  const std::string remote_block = BlockUri("s2", 1);
  (void)GetJson(home_block);
  (void)GetJson(remote_block);
  // Home shard dies exactly at the phase-2 compose POST (3rd downstream
  // call): both claims land, the forward fails, the rollback runs.
  faults_->ArmWindow("federation.shard.s1", FaultKind::kDropConnection, 3, 1000);
  const http::Response composed =
      Route(http::MakeJsonRequest(http::Method::kPost, core::kSystems,
                                  ComposeBody({home_block, remote_block})));
  EXPECT_EQ(composed.status, 503) << composed.body.view();
  faults_->Disarm("federation.shard.s1");
  const std::string trace_hex = composed.headers.GetOr(trace::kTraceIdHeader, "");
  ASSERT_EQ(trace_hex.size(), 16u);

  // The ?trace= query shortcut works on the router's dump action too.
  const http::Response dumped = Route(
      http::MakeRequest(http::Method::kPost, TraceDumpTarget() + "?trace=" + trace_hex));
  ASSERT_EQ(dumped.status, 200) << dumped.body.view();
  auto doc = json::Parse(dumped.body.view());
  ASSERT_TRUE(doc.ok());

  // claim -> forward -> rollback causality, with the failure marked.
  std::int64_t claim_start = -1, forward_start = -1, rollback_start = -1;
  std::set<std::string> origins;
  for (const Json& span : doc.value().at("Spans").as_array()) {
    const std::string name = span.GetString("Name");
    const std::int64_t start = span.GetInt("StartNs");
    origins.insert(span.GetString("Origin"));
    if (name == "compose.claim" && claim_start < 0) claim_start = start;
    if (name == "compose.forward") {
      forward_start = start;
      EXPECT_TRUE(span.GetBool("Error")) << "failed forward must be marked";
    }
    if (name == "compose.rollback" && rollback_start < 0) {
      rollback_start = start;
      EXPECT_TRUE(span.GetBool("Error"));
    }
  }
  ASSERT_GE(claim_start, 0) << "no compose.claim span assembled";
  ASSERT_GE(forward_start, 0) << "no compose.forward span assembled";
  ASSERT_GE(rollback_start, 0) << "no compose.rollback span assembled";
  EXPECT_LE(claim_start, forward_start);
  EXPECT_LE(forward_start, rollback_start);
  EXPECT_GE(origins.size(), 3u) << "router and both shards must contribute";
}

TEST_F(FederationFixture, FleetTelemetryMergesShardDumpsAndServesHealth) {
  StartShards(2, 2);
  (void)GetJson(core::kResourceBlocks);  // some shard traffic to count

  // FleetHealth is served by the router from the routing table alone.
  const Json health = GetJson(std::string(core::kMetricReports) + "/FleetHealth");
  EXPECT_EQ(health.GetString("Id"), "FleetHealth");
  const Json* health_shards = json::ResolvePointerRef(health, "/Oem/Ofmf/Shards");
  ASSERT_NE(health_shards, nullptr);
  ASSERT_EQ(health_shards->as_array().size(), 2u);
  for (const Json& shard : health_shards->as_array()) {
    EXPECT_TRUE(shard.GetBool("Alive")) << shard.GetString("ShardId");
  }

  // The merged MetricsDump names both contributing shards and recomputes
  // the fleet cache hit rate from the summed counters.
  const http::Response dump = Route(http::MakeRequest(
      http::Method::kPost,
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump"));
  ASSERT_EQ(dump.status, 200) << dump.body.view();
  auto merged = json::Parse(dump.body.view());
  ASSERT_TRUE(merged.ok());
  std::set<std::string> contributing;
  for (const Json& shard : merged.value().at("Shards").as_array()) {
    contributing.insert(shard.as_string());
  }
  EXPECT_EQ(contributing, (std::set<std::string>{"s1", "s2"}));
  EXPECT_TRUE(merged.value().at("ResponseCache").is_object());

  // The router's own TelemetryService lists all five fleet reports and
  // serves the histogram-merged latency report.
  const Json reports = GetJson(core::kMetricReports);
  EXPECT_EQ(reports.GetInt("Members@odata.count"), 5);
  const Json latency = GetJson(std::string(core::kMetricReports) + "/RequestLatency");
  EXPECT_EQ(latency.GetString("Id"), "RequestLatency");
  ASSERT_TRUE(latency.at("MetricValues").is_array());
  GetJson(std::string(core::kMetricReports) + "/NoSuchReport", 404);
}

// Shards that share a process dump the same process-global registry; the
// fleet counts it once, so a counter of 5 reads 5 and not 5 per shard.
TEST_F(FederationFixture, FleetCountsASharedProcessRegistryOnce) {
  StartShards(2, 0);
  const std::string name = "federation_test.fleet.shared_counter";
  metrics::Counter& counter = metrics::Registry::instance().counter(name);
  counter.Reset();
  counter.Increment(5);
  const http::Response dump = Route(http::MakeRequest(
      http::Method::kPost,
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump"));
  ASSERT_EQ(dump.status, 200) << dump.body.view();
  auto merged = json::Parse(dump.body.view());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(json::Serialize(merged->at("Shards")), R"(["s1","s2"])");
  std::int64_t value = -1;
  for (const Json& entry : merged->at("Counters").as_array()) {
    if (entry.GetString("Name") == name) value = entry.GetInt("Value");
  }
  EXPECT_EQ(value, 5);
}

// A shard whose MetricsDump fails is named on every gathered fleet document
// instead of silently shrinking the fleet totals.
TEST_F(FederationFixture, FleetReportsNameAShardWhoseDumpFailed) {
  StartShards(2, 1);
  // Distinct cache traffic per shard: the response cache is per service,
  // unlike the process-global metrics registry.
  for (const auto& [id, reads] : {std::pair<std::string, int>{"s1", 3}, {"s2", 5}}) {
    http::InProcessClient direct(shard(id).service.Handler());
    for (int i = 0; i < reads; ++i) {
      ASSERT_TRUE(direct.Send(http::MakeRequest(http::Method::kGet, core::kResourceBlocks)).ok());
    }
  }
  const auto cache_of = [this](const std::string& id) {
    return shard(id).service.rest().response_cache().stats();
  };
  const std::vector<std::string> reports = {"RequestLatency", "ResponseCache", "Resilience",
                                            "EventDelivery"};
  const std::string dump_uri =
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump";
  const auto post_dump = [&] {
    const http::Response response = Route(http::MakeRequest(http::Method::kPost, dump_uri));
    EXPECT_EQ(response.status, 200) << response.body.view();
    auto doc = json::Parse(response.body.view());
    return doc.ok() ? std::move(doc.value()) : Json();
  };

  faults_->ArmProbability("federation.shard.s2", FaultKind::kErrorStatus, 1.0);
  for (const std::string& name : reports) {
    const Json report = GetJson(std::string(core::kMetricReports) + "/" + name);
    const Json* degraded = json::ResolvePointerRef(report, "/Oem/Ofmf/DegradedShards");
    ASSERT_NE(degraded, nullptr) << name;
    EXPECT_EQ(json::Serialize(*degraded), R"(["s2"])") << name;
  }
  const Json cache = GetJson(std::string(core::kMetricReports) + "/ResponseCache");
  const Json& values = cache.at("MetricValues");
  EXPECT_EQ(values.as_array()[0].GetString("MetricId"), "CacheHits");
  EXPECT_EQ(values.as_array()[0].GetDouble("MetricValue"),
            static_cast<double>(cache_of("s1").hits));
  EXPECT_EQ(values.as_array()[1].GetDouble("MetricValue"),
            static_cast<double>(cache_of("s1").misses));
  const Json dump = post_dump();
  EXPECT_EQ(json::Serialize(dump.at("Shards")), R"(["s1"])");
  EXPECT_EQ(json::Serialize(*json::ResolvePointerRef(dump, "/Oem/Ofmf/DegradedShards")),
            R"(["s2"])");
  EXPECT_EQ(dump.at("ResponseCache").GetInt("Hits"),
            static_cast<std::int64_t>(cache_of("s1").hits));
  EXPECT_EQ(dump.at("ResponseCache").GetInt("Misses"),
            static_cast<std::int64_t>(cache_of("s1").misses));

  faults_->Disarm("federation.shard.s2");
  for (const std::string& name : reports) {
    const Json report = GetJson(std::string(core::kMetricReports) + "/" + name);
    EXPECT_EQ(json::ResolvePointerRef(report, "/Oem/Ofmf/DegradedShards"), nullptr) << name;
  }
  const Json healed = post_dump();
  EXPECT_EQ(json::Serialize(healed.at("Shards")), R"(["s1","s2"])");
  EXPECT_FALSE(healed.Contains("Oem"));
  EXPECT_EQ(healed.at("ResponseCache").GetInt("Misses"),
            static_cast<std::int64_t>(cache_of("s1").misses + cache_of("s2").misses));
}

// A port that is a double past the int64 range is as invalid as a missing
// one (converting it to an integer would be undefined behaviour).
TEST(DirectoryTest, RegisterWithOutOfRangePortAnswers400) {
  DirectoryService directory;
  http::InProcessClient client(directory.Handler());
  auto response = client.Send(http::MakeJsonRequest(
      http::Method::kPost, federation::kDirectoryShardsPath,
      Json::Obj({{"ShardId", "s9"}, {"Port", 1e300}})));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400) << response->body.view();
  EXPECT_TRUE(directory.Table().shards.empty());
}

TEST(DirectoryTest, HeartbeatCarriesOptionalStatsIntoTable) {
  DirectoryService directory;
  directory.Register("s1", 8081);
  ASSERT_TRUE(
      directory.Heartbeat("s1", Json::Obj({{"BreakersOpen", 2}})).ok());
  const RoutingTable table = directory.Table();
  ASSERT_NE(table.Find("s1"), nullptr);
  EXPECT_EQ(table.Find("s1")->stats.GetInt("BreakersOpen"), 2);
  EXPECT_GE(table.Find("s1")->heartbeat_age_ms, 0);
  // The stats survive the JSON round-trip routers receive the table through.
  const auto parsed = RoutingTable::FromJson(table.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s1")->stats.GetInt("BreakersOpen"), 2);
}

// ----------------------------------------- batched legs + member splice --

using Clock = std::chrono::steady_clock;

long long MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
}

Json BlockRef(const std::string& id) {
  return Json::Obj({{"@odata.id", std::string(core::kResourceBlocks) + "/" + id}});
}

/// A shard that serves one crafted ResourceBlocks collection over TCP, paged
/// with $skip/$top like a real shard and written by json::Serialize, and
/// logs every body it served so a test can redo the DOM merge from them.
struct PageShard {
  struct Served {
    std::string target;
    std::string body;
  };

  http::TcpServer server;

  void Configure(Json envelope, std::vector<Json> members, bool with_count = true) {
    std::lock_guard<std::mutex> lock(mu_);
    envelope_ = std::move(envelope);
    members_ = std::move(members);
    with_count_ = with_count;
    raw_body_.clear();
  }
  /// Serves `body` verbatim from now on.
  void ServeRaw(std::string body) {
    std::lock_guard<std::mutex> lock(mu_);
    raw_body_ = std::move(body);
  }
  void set_sleep_ms(int ms) {
    std::lock_guard<std::mutex> lock(mu_);
    sleep_ms_ = ms;
  }
  std::vector<Served> TakeServed() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(served_, {});
  }

  http::Response Serve(const http::Request& request) {
    std::unique_lock<std::mutex> lock(mu_);
    if (sleep_ms_ > 0) {
      const int sleep_ms = sleep_ms_;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      lock.lock();
    }
    std::string body = raw_body_;
    if (body.empty()) {
      auto option = [&](const char* name, std::size_t fallback) {
        const auto it = request.query.find(name);
        return it == request.query.end() ? fallback
                                         : static_cast<std::size_t>(std::stoull(it->second));
      };
      const std::size_t skip = std::min(members_.size(), option("$skip", 0));
      const std::size_t top = std::min(members_.size() - skip, option("$top", members_.size()));
      const auto first = members_.begin() + static_cast<std::ptrdiff_t>(skip);
      Json doc = envelope_;
      doc["Members"] = Json(json::Array(first, first + static_cast<std::ptrdiff_t>(top)));
      if (with_count_) doc["Members@odata.count"] = Json(members_.size());
      body = json::Serialize(doc);
    }
    served_.push_back({request.target, body});
    http::Response response;
    response.body = body;
    response.headers.Set("Content-Type", "application/json");
    return response;
  }

 private:
  std::mutex mu_;
  Json envelope_ = Json::MakeObject();
  std::vector<Json> members_;
  bool with_count_ = true;
  std::string raw_body_;
  int sleep_ms_ = 0;
  std::vector<Served> served_;
};

/// A TCP peer that answers every request with one fixed reply and closes.
class FixedReplyPeer {
 public:
  explicit FixedReplyPeer(std::string reply) : reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(listen_fd_, 16) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
    thread_ = std::thread([this] { AcceptLoop(); });
  }
  FixedReplyPeer(const FixedReplyPeer&) = delete;
  FixedReplyPeer& operator=(const FixedReplyPeer&) = delete;
  ~FixedReplyPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept()
    thread_.join();
    ::close(listen_fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string head;
      char buffer[4096];
      while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        head.append(buffer, static_cast<std::size_t>(n));
      }
      (void)::send(fd, reply_.data(), reply_.size(), MSG_NOSIGNAL);
      ::close(fd);
    }
  }

  std::string reply_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// The merge the router made before it spliced member bytes: the first full
/// page's DOM is the envelope, every full page's Members are appended, the
/// count is the sum of every page's count, and the result is serialized.
std::string DomMerge(const std::vector<PageShard::Served>& pages, const std::string& next_link,
                     long long omitted_members, const std::vector<std::string>& degraded) {
  Json merged;
  json::Array members;
  long long total = 0;
  for (const PageShard::Served& page : pages) {
    auto doc = json::Parse(page.body);
    EXPECT_TRUE(doc.ok() && doc->is_object()) << page.body;
    if (!doc.ok()) continue;
    const Json& page_members = doc->at("Members");
    total += doc->GetInt("Members@odata.count",
                         page_members.is_array()
                             ? static_cast<long long>(page_members.as_array().size())
                             : 0);
    if (page.target.find("$top=0") != std::string::npos) continue;  // count only
    if (page_members.is_array()) {
      members.insert(members.end(), page_members.as_array().begin(),
                     page_members.as_array().end());
    }
    if (merged.is_null()) merged = std::move(doc.value());
  }
  if (merged.is_null()) {
    merged = Json::Obj({{"@odata.id", core::kResourceBlocks},
                        {"Name", "Federated collection"},
                        {"Members", Json::MakeArray()}});
  }
  json::Object& obj = merged.as_object();
  obj.Set("Members", Json(std::move(members)));
  obj.Set("Members@odata.count", total);
  obj.Erase("@odata.etag");
  obj.Erase("@odata.nextLink");
  if (!next_link.empty()) obj.Set("@odata.nextLink", next_link);
  if (!degraded.empty()) {
    Json& oem = merged["Oem"];
    if (!oem.is_object()) oem = Json::MakeObject();
    Json& ofmf = oem["Ofmf"];
    if (!ofmf.is_object()) ofmf = Json::MakeObject();
    ofmf.as_object().Set("MembersOmittedCount", omitted_members);
    json::Array ids;
    for (const std::string& id : degraded) ids.push_back(Json(id));
    ofmf.as_object().Set("DegradedShards", Json(std::move(ids)));
  }
  return json::Serialize(merged);
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

class SpliceFixture : public ::testing::Test {
 protected:
  PageShard& AddShard(const std::string& id) {
    auto shard = std::make_unique<PageShard>();
    PageShard* raw = shard.get();
    EXPECT_TRUE(
        shard->server.Start([raw](const http::Request& request) { return raw->Serve(request); }, 0)
            .ok());
    directory_.Register(id, shard->server.port());
    shards_.push_back(std::move(shard));
    return *raw;
  }

  void StartRouter() {
    router_ = std::make_unique<FederationRouter>(std::make_shared<DirectoryClient>(
        std::make_unique<http::InProcessClient>(directory_.Handler()),
        /*max_age_ms=*/0));
    router_->set_fault_injector(faults_);
  }

  void TearDown() override {
    for (auto& shard : shards_) shard->server.Stop();
  }

  http::Response Get(const std::string& target) {
    return router_->Route(http::MakeRequest(http::Method::kGet, target));
  }

  /// Every page the shards served since the last call, in shard order.
  std::vector<PageShard::Served> TakeServed() {
    std::vector<PageShard::Served> pages;
    for (auto& shard : shards_) {
      for (auto& page : shard->TakeServed()) pages.push_back(std::move(page));
    }
    return pages;
  }

  DirectoryService directory_;
  std::shared_ptr<FaultInjector> faults_ = std::make_shared<FaultInjector>(2026);
  std::vector<std::unique_ptr<PageShard>> shards_;
  std::unique_ptr<FederationRouter> router_;
};

Json Envelope() {
  return Json::Obj({{"@odata.type", "#ResourceBlockCollection.ResourceBlockCollection"},
                    {"@odata.id", core::kResourceBlocks},
                    {"Name", "Resource Block Collection"}});
}

TEST_F(SpliceFixture, MergedBodyIsByteIdenticalToTheDomMerge) {
  // s1 is the envelope: its count sits before Members, it carries a
  // shard-local etag and nextLink, an escaped description and an Oem, and its
  // member ids need escaping or are not ASCII.
  Json first = Json::Obj({{"@odata.type", "#ResourceBlockCollection.ResourceBlockCollection"},
                          {"@odata.id", core::kResourceBlocks},
                          {"Members@odata.count", 0},
                          {"Name", "Resource Block Collection"},
                          {"Members", Json::MakeArray()},
                          {"@odata.etag", "W/\"7\""},
                          {"@odata.nextLink", "/shard-local?$skip=2"},
                          {"Description", "tab\there \"quoted\" \\ \xc3\xbc\x01"},
                          {"Oem", Json::Obj({{"Vendor", Json::Obj({{"Tag", "x"}})}})}});
  AddShard("s1").Configure(first, {BlockRef("q\"uote"), BlockRef("back\\slash"),
                                   BlockRef("ctl\x01x"), BlockRef("nl\nx"),
                                   BlockRef("\xc3\xbc" "ber-\xe6\x97\xa5\xe6\x9c\xac"),
                                   BlockRef("slash/x")});
  AddShard("s2").Configure(Envelope(), {});  // an empty shard
  AddShard("s3").Configure(Envelope(), {BlockRef("s3-a"), BlockRef("s3-b")},
                           /*with_count=*/false);
  AddShard("s4").Configure(Json::Obj({{"Name", "other envelope"}}),
                           {BlockRef("s4-a"), BlockRef("s4-b"), BlockRef("s4-c")});
  StartRouter();

  const http::Response merged = Get(core::kResourceBlocks);
  ASSERT_EQ(merged.status, 200) << merged.body.view();
  EXPECT_EQ(merged.body.view(), DomMerge(TakeServed(), "", 0, {}));
  auto doc = json::Parse(merged.body.view());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetInt("Members@odata.count"), 11);
  EXPECT_EQ(doc->at("Members").as_array().size(), 11u);

  // Degraded, with an envelope Oem: the annotation joins it in place.
  faults_->ArmProbability("federation.shard.s4", FaultKind::kDropConnection, 1.0);
  const http::Response with_oem = Get(core::kResourceBlocks);
  ASSERT_EQ(with_oem.status, 200);
  EXPECT_EQ(with_oem.body.view(), DomMerge(TakeServed(), "", 3, {"s4"}));
  faults_->Disarm("federation.shard.s4");

  // Degraded, without one: the annotation is appended.
  first.as_object().Erase("Oem");
  shards_[0]->Configure(first, {BlockRef("only")});
  faults_->ArmProbability("federation.shard.s3", FaultKind::kDropConnection, 1.0);
  const http::Response without_oem = Get(core::kResourceBlocks);
  ASSERT_EQ(without_oem.status, 200);
  EXPECT_EQ(without_oem.body.view(), DomMerge(TakeServed(), "", 2, {"s3"}));
}

TEST_F(SpliceFixture, PageWalkIsByteIdenticalToTheDomMerge) {
  AddShard("s1").Configure(Envelope(), {BlockRef("a\"1"), BlockRef("a2"), BlockRef("a3")});
  AddShard("s2").Configure(Envelope(), {});
  AddShard("s3").Configure(Envelope(), {BlockRef("c1"), BlockRef("c2")});
  AddShard("s4").Configure(Envelope(), {BlockRef("d1"), BlockRef("d\xc3\xa9")});
  StartRouter();

  std::string target = std::string(core::kResourceBlocks) + "?$top=2";
  std::set<std::string> walked;
  for (int page = 0; !target.empty() && page < 10; ++page) {
    const http::Response response = Get(target);
    ASSERT_EQ(response.status, 200) << target << ": " << response.body.view();
    auto doc = json::Parse(response.body.view());
    ASSERT_TRUE(doc.ok());
    const std::string next = doc->GetString("@odata.nextLink");
    EXPECT_EQ(response.body.view(), DomMerge(TakeServed(), next, 0, {})) << target;
    for (const Json& member : doc->at("Members").as_array()) {
      walked.insert(member.GetString("@odata.id"));
    }
    if (!next.empty()) {
      EXPECT_THAT(next, HasSubstr("$fedskip="));
    }
    target = next;
  }
  EXPECT_TRUE(target.empty()) << "the walk must end";
  EXPECT_EQ(walked.size(), 7u);
}

// A page json::Serialize did not write (whitespace, escapes it would not
// use, repeated keys, a count written as a double) merges to the document
// the DOM merge gives, member order included.
TEST_F(SpliceFixture, OtherValidPagesMergeToTheSameDocument) {
  AddShard("s1").ServeRaw(
      " {\"@odata.id\" : \"\\/redfish\\/v1\\/CompositionService\\/ResourceBlocks\",\n"
      "  \"Members\": [ {\"@odata.id\": \"\\u0061\"} ,{\"@odata.id\":\"b\", \"@odata.id\":\"b2\"}],\n"
      "  \"Name\": \"x\", \"Name\": \"y\", \"Members@odata.count\": 2.0e0 } ");
  AddShard("s2").Configure(Envelope(), {BlockRef("c")});
  StartRouter();
  const http::Response merged = Get(core::kResourceBlocks);
  ASSERT_EQ(merged.status, 200) << merged.body.view();
  auto doc = json::Parse(merged.body.view());
  ASSERT_TRUE(doc.ok()) << merged.body.view();
  EXPECT_EQ(json::Serialize(*doc), DomMerge(TakeServed(), "", 0, {}));
  EXPECT_EQ(doc->GetInt("Members@odata.count"), 3);
}

// A count that is not an int64 counts as missing: the page is counted by its
// members, and the merged count stays exact.
TEST_F(SpliceFixture, OutOfRangeCountIsCountedByMembers) {
  AddShard("s1").ServeRaw(
      R"({"@odata.id":"/redfish/v1/CompositionService/ResourceBlocks",)"
      R"("Members":[{"@odata.id":"a"},{"@odata.id":"b"}],"Members@odata.count":1e300})");
  AddShard("s2").Configure(Envelope(), {BlockRef("c"), BlockRef("d"), BlockRef("e")});
  StartRouter();
  const http::Response merged = Get(core::kResourceBlocks);
  ASSERT_EQ(merged.status, 200) << merged.body.view();
  auto doc = json::Parse(merged.body.view());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetInt("Members@odata.count"), 5);
  EXPECT_EQ(merged.body.view(), DomMerge(TakeServed(), "", 0, {}));
}

// The legs overlap on the router's one thread: two shards that each take
// 200 ms cost about 200 ms together, not the 400 ms of their sum.
TEST_F(SpliceFixture, SlowShardsOverlapInsteadOfAddingUp) {
  for (const char* id : {"s1", "s2", "s3", "s4"}) {
    AddShard(id).Configure(Envelope(), {BlockRef(std::string(id) + "-a"),
                                        BlockRef(std::string(id) + "-b")});
  }
  shards_[1]->set_sleep_ms(200);
  shards_[3]->set_sleep_ms(200);
  StartRouter();
  const auto start = Clock::now();
  const http::Response merged = Get(core::kResourceBlocks);
  const long long elapsed_ms = MillisSince(start);
  ASSERT_EQ(merged.status, 200) << merged.body.view();
  auto doc = json::Parse(merged.body.view());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("Members").as_array().size(), 8u);
  EXPECT_GE(elapsed_ms, 200);
  EXPECT_LT(elapsed_ms, 380) << "slow legs must overlap";
}

// A page the JSON grammar rejects, a page that is not an object, and an
// answer whose status line does not parse are each omitted with the
// degraded annotation, and the router keeps serving.
TEST_F(SpliceFixture, MalformedShardAnswersAreOmittedAsDegraded) {
  AddShard("s1").Configure(Envelope(), {BlockRef("a1"), BlockRef("a2")});
  AddShard("s2").Configure(Envelope(), {BlockRef("b1")});
  AddShard("s3").Configure(Envelope(), {BlockRef("c1")});
  FixedReplyPeer bad_status("HTTP/1.1 200abc OK\r\nContent-Type: application/json\r\n"
                            "Content-Length: 2\r\n\r\n{}");
  directory_.Register("s4", bad_status.port());
  StartRouter();

  shards_[1]->ServeRaw(R"({"@odata.id":"x","Members":[{"@odata.id":"b1"})");  // truncated
  shards_[2]->ServeRaw("[1,2]");                                               // not an object
  const Json degraded = *json::Parse(Get(core::kResourceBlocks).body.view());
  EXPECT_EQ(degraded.GetInt("Members@odata.count"), 2);
  EXPECT_EQ(degraded.at("Members").as_array().size(), 2u);
  const Json* shards = json::ResolvePointerRef(degraded, "/Oem/Ofmf/DegradedShards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(json::Serialize(*shards), R"(["s2","s3","s4"])");

  shards_[1]->Configure(Envelope(), {BlockRef("b1")});
  shards_[2]->Configure(Envelope(), {BlockRef("c1")});
  const Json healed = *json::Parse(Get(core::kResourceBlocks).body.view());
  EXPECT_EQ(healed.GetInt("Members@odata.count"), 4);
  EXPECT_EQ(json::Serialize(*json::ResolvePointerRef(healed, "/Oem/Ofmf/DegradedShards")),
            R"(["s4"])");
}

// Shards reap idle keep-alive sockets after 50 ms, so every GET after a
// 200 ms pause finds the router's pooled sockets closed; the batch retries
// them on fresh connections and every GET still answers in full.
TEST_F(FederationFixture, PooledSocketsClosedByShardsAreRetried) {
  http::ServerOptions options;
  options.idle_timeout_ms = 50;
  StartShards(4, 2, options);
  for (int round = 0; round < 4; ++round) {
    if (round > 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const Json merged = GetJson(core::kResourceBlocks);
    EXPECT_EQ(merged.GetInt("Members@odata.count"), 8) << round;
    EXPECT_EQ(Members(merged).size(), 8u) << round;
    EXPECT_EQ(json::ResolvePointerRef(merged, "/Oem/Ofmf/DegradedShards"), nullptr) << round;
  }
  std::uint64_t idle_closed = 0;
  for (const auto& shard : shards_) idle_closed += shard->server.stats().idle_closed;
  EXPECT_GE(idle_closed, 4u) << "the shards must have closed pooled sockets";
}

// The scatter-gather and the fleet metrics gather start no threads.
TEST_F(FederationFixture, GathersDoNotAddThreads) {
  StartShards(4, 2);
  const std::string dump_target =
      std::string(core::kServiceRoot) + "/Actions/OfmfService.MetricsDump";
  (void)GetJson(core::kResourceBlocks);
  ASSERT_EQ(Route(http::MakeRequest(http::Method::kPost, dump_target)).status, 200);

  std::atomic<bool> done{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!done.load()) peak.store(std::max(peak.load(), ThreadCount()));
  });
  while (peak.load() == 0) std::this_thread::yield();
  const int baseline = ThreadCount();
  for (int i = 0; i < 100; ++i) {
    const http::Response merged =
        Route(http::MakeRequest(http::Method::kGet, core::kResourceBlocks));
    ASSERT_EQ(merged.status, 200);
  }
  ASSERT_EQ(Route(http::MakeRequest(http::Method::kPost, dump_target)).status, 200);
  done.store(true);
  sampler.join();
  EXPECT_LE(peak.load(), baseline) << "a gather started a thread";
}

// A forward holds only its own router worker: four GETs through a router
// reactor reach four shards at once. Each shard handler waits, at most 5 s,
// until all four are inside, so forwards that ran one at a time time out.
TEST_F(FederationFixture, ForwardsToFourShardsRunConcurrently) {
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    int inside = 0;
    int timeouts = 0;
  };
  auto barrier = std::make_shared<Barrier>();
  before_shard_handles_ = [barrier](const http::Request& request) {
    if (request.path.find("/Fabrics/") == std::string::npos) return;
    std::unique_lock<std::mutex> lock(barrier->mu);
    ++barrier->inside;
    barrier->cv.notify_all();
    if (!barrier->cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return barrier->inside >= 4; })) {
      ++barrier->timeouts;
    }
  };
  StartShards(4, 0);
  const HashRing ring(directory_.Table());
  std::map<std::string, std::string> fabric_of_shard;
  for (int i = 0; fabric_of_shard.size() < 4 && i < 1000; ++i) {
    const std::string fabric_id = "fab" + std::to_string(i);
    const std::string owner = ring.OwnerOf("fabric:" + fabric_id).value_or("");
    if (owner.empty() || fabric_of_shard.count(owner) != 0) continue;
    ASSERT_TRUE(shard(owner).service.CreateFabricSkeleton(fabric_id, "NVMeoF", owner).ok());
    fabric_of_shard[owner] = fabric_id;
  }
  ASSERT_EQ(fabric_of_shard.size(), 4u);

  http::ServerOptions options;
  options.workers = 8;
  http::TcpServer router_server;
  ASSERT_TRUE(router_server.Start(router_->Handler(), 0, options).ok());
  std::vector<std::thread> clients;
  for (const auto& [owner, fabric_id] : fabric_of_shard) {
    clients.emplace_back([&router_server, uri = core::FabricUri(fabric_id)] {
      http::TcpClient client(router_server.port(), 30000);
      auto response = client.Get(uri);
      EXPECT_TRUE(response.ok() && response->status == 200) << uri;
    });
  }
  for (std::thread& client : clients) client.join();
  router_server.Stop();
  std::lock_guard<std::mutex> lock(barrier->mu);
  EXPECT_EQ(barrier->inside, 4);
  EXPECT_EQ(barrier->timeouts, 0);
}

// A kDelay fault at federation.shard.<id> delays that shard's leg only: its
// router.fetch span takes the delay, the other legs' spans do not.
TEST_F(FederationFixture, DelayFaultDelaysOnlyItsOwnLeg) {
  TraceSamplingGuard guard;
  trace::TraceRecorder::instance().Clear();
  trace::TraceRecorder::instance().set_sampling(1.0);
  StartShards(4, 1);
  faults_->set_delay_ms(200);
  faults_->ArmProbability("federation.shard.s2", FaultKind::kDelay, 1.0);
  const auto start = Clock::now();
  const http::Response merged = Route(http::MakeRequest(http::Method::kGet, core::kResourceBlocks));
  const long long elapsed_ms = MillisSince(start);
  ASSERT_EQ(merged.status, 200);
  EXPECT_EQ(json::Parse(merged.body.view())->GetInt("Members@odata.count"), 4);
  EXPECT_GE(elapsed_ms, 200);
  EXPECT_LT(elapsed_ms, 380);

  const std::uint64_t trace_id =
      trace::HexToId(merged.headers.GetOr(trace::kTraceIdHeader, ""));
  ASSERT_NE(trace_id, 0u);
  std::map<std::string, std::uint64_t> leg_ms;
  for (const trace::SpanRecord& span : trace::TraceRecorder::instance().TraceSpans(trace_id)) {
    if (span.name == "router.fetch") leg_ms[span.note] = span.duration_ns / 1000000;
  }
  ASSERT_EQ(leg_ms.size(), 4u);
  EXPECT_GE(leg_ms["s2"], 200u);
  for (const char* fast : {"s1", "s3", "s4"}) {
    EXPECT_LT(leg_ms[fast], 150u) << fast;
  }
}

// --------------------------------------------- pooled event delivery wire --

TEST(FederationDeliveryTest, LoopbackDestinationsShareOnePooledConnection) {
  // A real TCP sink: every delivery POST lands here.
  std::atomic<int> posts{0};
  http::TcpServer sink;
  ASSERT_TRUE(sink.Start(
                      [&](const http::Request&) {
                        posts.fetch_add(1);
                        return http::MakeEmptyResponse(204);
                      },
                      0)
                  .ok());

  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  // No set_client_factory override: the default wire factory must carry
  // loopback destinations over a pooled keep-alive TcpClient.
  const std::string destination =
      "http://127.0.0.1:" + std::to_string(sink.port()) + "/events";
  ASSERT_TRUE(ofmf.events()
                  .Subscribe(Json::Obj({{"Destination", destination},
                                        {"Protocol", "Redfish"}}))
                  .ok());

  core::Event event;
  event.event_type = "Alert";
  event.message_id = "Federation.1.0.PooledDelivery";
  event.message = "pooled";
  event.origin = core::kServiceRoot;
  for (int round = 0; round < 5; ++round) {
    ofmf.events().Publish(event);
    ASSERT_TRUE(ofmf.events().FlushDelivery(10000));
  }

  EXPECT_GE(posts.load(), 5);
  // Keep-alive pooling: many delivery batches, one TCP connection.
  EXPECT_EQ(sink.stats().connections_accepted, 1u);
  sink.Stop();
}

TEST(FederationDeliveryTest, DefaultWireFactoryOnlyBuildsLoopbackClients) {
  const core::ClientFactory factory = core::DefaultWireClientFactory();
  EXPECT_NE(factory("http://127.0.0.1:8080/events"), nullptr);
  EXPECT_NE(factory("http://localhost:9000/sink"), nullptr);
  EXPECT_EQ(factory("http://10.0.0.1/sink"), nullptr);
  EXPECT_EQ(factory("http://example.com:8080/events"), nullptr);
  EXPECT_EQ(factory("http://127.0.0.1:99999/events"), nullptr);  // bad port
  EXPECT_EQ(factory("not-a-url"), nullptr);
}

// ------------------------------------------------ per-subscriber metrics --

TEST(FederationDeliveryTest, DeliveryReportCarriesPerSubscriberCounters) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  // An in-process sink that always succeeds.
  ofmf.events().set_client_factory([](const std::string&) {
    return std::make_unique<http::InProcessClient>(
        [](const http::Request&) { return http::MakeEmptyResponse(204); });
  });
  const auto subscription = ofmf.events().Subscribe(
      Json::Obj({{"Destination", "http://sink/events"}, {"Protocol", "Redfish"}}));
  ASSERT_TRUE(subscription.ok());

  core::Event event;
  event.event_type = "Alert";
  event.message_id = "Federation.1.0.Metrics";
  event.message = "m";
  event.origin = core::kServiceRoot;
  for (int i = 0; i < 3; ++i) {
    ofmf.events().Publish(event);
    ASSERT_TRUE(ofmf.events().FlushDelivery(10000));
  }

  // GET of the report refreshes it lazily from the live snapshot.
  http::InProcessClient client(ofmf.Handler());
  const auto response = client.Send(http::MakeRequest(
      http::Method::kGet, core::TelemetryService::ReportUri("EventDelivery")));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  const auto report = json::Parse(response.value().body.view());
  ASSERT_TRUE(report.ok());

  // MetricValues: per-subscriber Delivered./Dropped./Retries./BreakerOpen.
  std::set<std::string> metric_ids;
  for (const Json& value : report->at("MetricValues").as_array()) {
    metric_ids.insert(value.GetString("MetricId"));
  }
  const std::string& uri = subscription.value();
  EXPECT_TRUE(metric_ids.count("Delivered." + uri)) << "missing per-sub delivered";
  EXPECT_TRUE(metric_ids.count("Dropped." + uri));
  EXPECT_TRUE(metric_ids.count("Retries." + uri));
  EXPECT_TRUE(metric_ids.count("Queued." + uri));
  EXPECT_TRUE(metric_ids.count("BreakerOpen." + uri));

  // The Oem.Ofmf.Subscribers entry carries the full counter set.
  const Json* subscribers =
      json::ResolvePointerRef(*report, "/Oem/Ofmf/Subscribers");
  ASSERT_NE(subscribers, nullptr);
  ASSERT_EQ(subscribers->as_array().size(), 1u);
  const Json& entry = subscribers->as_array()[0];
  EXPECT_EQ(entry.GetString("Subscription"), uri);
  EXPECT_EQ(entry.GetInt("Enqueued"), 3);
  EXPECT_EQ(entry.GetInt("Delivered"), 3);
  EXPECT_GE(entry.GetInt("Batches"), 1);
  EXPECT_EQ(entry.GetInt("Dropped"), 0);
  EXPECT_EQ(entry.GetString("BreakerState"), "Closed");
  EXPECT_EQ(entry.GetInt("BreakerOpens"), 0);
}

}  // namespace
}  // namespace ofmf
