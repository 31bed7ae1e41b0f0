// federated_read: a fleet dashboard in front of the federation tier. A
// directory and a FederationRouter on a TcpServer front four shard
// OfmfServices, each on its own TcpServer in shard mode (no store, no auth).
// Fabrics sit on their ring owners and every shard registers 128
// ResourceBlocks, so the aggregated collection merges 512 members from four
// scatter-gather legs. One epoll driver, two keep-alive connections.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/trace.hpp"
#include "federation/directory.hpp"
#include "federation/directory_client.hpp"
#include "federation/router.hpp"
#include "layers.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace http = ofmf::http;
namespace federation = ofmf::federation;
using ofmf::json::Json;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kFabricsPerShard = 4;
constexpr std::size_t kLeavesPerFabric = 32;
constexpr std::size_t kBlocksPerShard = 128;
constexpr std::size_t kConnections = 2;
constexpr int kSetups = 9;  // ~0.2 s each

struct FedShard {
  std::string id;
  ofmf::core::OfmfService service;
  http::TcpServer server;
};

struct FedStack {
  federation::DirectoryService directory;
  std::atomic<std::uint64_t> directory_calls{0};
  SpanLog router_spans;
  SpanLog shard_spans;
  std::vector<std::unique_ptr<FedShard>> shards;
  std::unique_ptr<federation::FederationRouter> router;
  http::TcpServer router_server;
  FedInventory inventory;
  std::uint64_t last_heartbeat_ns = 0;

  ~FedStack() {
    router_server.Stop();
    for (auto& shard : shards) shard->server.Stop();
  }

  std::string Build(bool traced) {
    for (std::size_t s = 0; s < kShards; ++s) {
      auto shard = std::make_unique<FedShard>();
      shard->id = "s" + std::to_string(s + 1);
      if (!shard->service.Bootstrap().ok()) return "shard bootstrap failed";
      shard->service.set_shard_identity(shard->id);
      const http::ServerHandler handler = traced
                                              ? TimedHandler(shard->service.Handler(), shard_spans)
                                              : shard->service.Handler();
      if (!shard->server.Start(handler).ok()) return "shard server start failed";
      directory.Register(shard->id, shard->server.port());
      for (std::size_t b = 0; b < kBlocksPerShard; ++b) {
        ofmf::core::BlockCapability block;
        block.id = shard->id + "-blk-" + std::to_string(b);
        block.block_type = b % 2 == 0 ? "Compute" : "Memory";
        block.cores = b % 2 == 0 ? 16 : 0;
        block.memory_gib = b % 2 == 0 ? 64 : 256;
        block.locality = shard->id;
        auto uri = shard->service.composition().RegisterBlock(block);
        if (!uri.ok()) return "block register failed";
        inventory.blocks.push_back(*uri);
      }
      shards.push_back(std::move(shard));
    }
    inventory.blocks_total = static_cast<long long>(kShards * kBlocksPerShard);

    // Fabrics on their ring owners, kFabricsPerShard each, with endpoints.
    const federation::HashRing ring(directory.Table());
    std::map<std::string, std::size_t> placed;
    for (int candidate = 0; placed.size() < kShards ||
                            std::any_of(placed.begin(), placed.end(), [](const auto& entry) {
                              return entry.second < kFabricsPerShard;
                            });
         ++candidate) {
      if (candidate > 10000) return "could not place fabrics on every shard";
      const std::string fabric_id = "fab" + std::to_string(candidate);
      const auto owner = ring.OwnerOf("fabric:" + fabric_id);
      if (!owner) return "empty ring";
      if (placed[*owner] >= kFabricsPerShard) continue;
      ++placed[*owner];
      FedShard* shard = nullptr;
      for (auto& candidate_shard : shards) {
        if (candidate_shard->id == *owner) shard = candidate_shard.get();
      }
      auto& tree = shard->service.tree();
      if (!shard->service.CreateFabricSkeleton(fabric_id, "Ethernet", *owner).ok()) {
        return "fabric create failed";
      }
      const std::string endpoints = ofmf::core::FabricUri(fabric_id) + "/Endpoints";
      for (std::size_t e = 0; e < kLeavesPerFabric; ++e) {
        const std::string id = "ep" + std::to_string(e);
        const std::string uri = endpoints + "/" + id;
        if (!tree.Create(uri, "#Endpoint.v1_8_0.Endpoint",
                         Json::Obj({{"Id", id},
                                    {"Name", fabric_id + " " + id},
                                    {"EndpointProtocol", "Ethernet"},
                                    {"EndpointRole", "Both"},
                                    {"Status", Json::Obj({{"State", "Enabled"},
                                                          {"Health", "OK"}})}}))
                 .ok() ||
            !tree.AddMember(endpoints, uri).ok()) {
          return "endpoint create failed";
        }
        inventory.fabric_leaves.push_back(uri);
      }
    }

    const http::ServerHandler directory_handler =
        traced ? CountedHandler(directory.Handler(), directory_calls) : directory.Handler();
    router = std::make_unique<federation::FederationRouter>(
        std::make_shared<federation::DirectoryClient>(
            std::make_unique<http::InProcessClient>(directory_handler)));
    const http::ServerHandler router_handler =
        traced ? TimedHandler(router->Handler(), router_spans) : router->Handler();
    if (!router_server.Start(router_handler).ok()) return "router server start failed";
    last_heartbeat_ns = NowNs();
    return "";
  }

  /// Shards heartbeat the directory about once a second, as rest_server does.
  void Heartbeat() {
    if (NowNs() - last_heartbeat_ns < 1'000'000'000ull) return;
    last_heartbeat_ns = NowNs();
    for (auto& shard : shards) (void)directory.Heartbeat(shard->id);
  }
};

CheckOp FedChecker(const FedInventory& inventory) {
  return [&inventory](std::size_t, const Op& op, const http::Response& response) -> std::string {
    switch (op.kind) {
      case kAggregateGet:
        return CheckCollection(response, op.target, inventory.blocks_total);
      case kFabricPatch: {
        Json doc;
        std::string why = CheckDocument(response, 200, op.target, &doc);
        if (!why.empty()) return why;
        return doc.GetString("Name").rfind("routed ", 0) == 0 ? "" : "PATCH did not apply";
      }
      default:
        return CheckDocument(response, 200, op.target, nullptr);
    }
  };
}

struct FedWindow {
  DriverResult result;
  http::ServerStats router_before, router_after;
  std::vector<http::ServerStats> shards_before, shards_after;
  ofmf::redfish::ResponseCacheStats cache_before, cache_after;
  federation::RouterStats routing_before, routing_after;
  std::uint64_t directory_before = 0, directory_after = 0;
  ProcCounters proc_before, proc_after;
  int idle_threads = 0, peak_threads = 0;
};

ofmf::redfish::ResponseCacheStats CacheTotals(FedStack& stack) {
  ofmf::redfish::ResponseCacheStats total;
  for (auto& shard : stack.shards) {
    const auto stats = shard->service.rest().response_cache().stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.invalidations += stats.invalidations;
  }
  return total;
}

FedWindow Measure(FedStack& stack, std::vector<FedMix>& mixes, double seconds, bool traced,
                  std::uint64_t first_seq) {
  FedWindow window;
  window.idle_threads = ThreadCount();
  window.peak_threads = window.idle_threads;
  window.router_before = stack.router_server.stats();
  for (auto& shard : stack.shards) window.shards_before.push_back(shard->server.stats());
  window.cache_before = CacheTotals(stack);
  window.routing_before = stack.router->stats();
  window.directory_before = stack.directory_calls.load();
  window.proc_before = ReadProcCounters();

  DriverConfig config;
  config.port = stack.router_server.port();
  config.connections = kConnections;
  config.deadline_ns = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  config.stamp_seq = traced;
  config.first_seq = first_seq;
  config.tick = [&] {
    stack.Heartbeat();
    window.peak_threads = std::max(window.peak_threads, ThreadCount());
  };
  window.result = RunClosedLoop(
      config, [&](std::size_t conn) { return mixes[conn].Next(); }, FedChecker(stack.inventory));

  window.proc_after = ReadProcCounters();
  window.directory_after = stack.directory_calls.load();
  window.routing_after = stack.router->stats();
  window.cache_after = CacheTotals(stack);
  for (auto& shard : stack.shards) window.shards_after.push_back(shard->server.stats());
  window.router_after = stack.router_server.stats();
  return window;
}

/// Router-side detail of a traced window: Route time by request kind, shard
/// legs per aggregated GET, and router self time net of its slowest leg.
void AddFederationDetail(Report& report, const FedWindow& window,
                         const std::vector<HandlerSpan>& router_spans,
                         const std::vector<HandlerSpan>& shard_spans) {
  std::unordered_map<std::uint64_t, int> kind_of;
  for (const Sample& sample : window.result.samples) kind_of[sample.seq] = sample.kind;
  std::unordered_map<std::string, std::vector<const HandlerSpan*>> legs;
  std::vector<double> shard_us;
  for (const HandlerSpan& span : shard_spans) {
    shard_us.push_back(span.us());
    if (!span.trace_id.empty()) legs[span.trace_id].push_back(&span);
  }
  std::vector<double> fwd_us, agg_us, agg_self_us, legs_per_agg;
  for (const HandlerSpan& span : router_spans) {
    const auto kind = kind_of.find(span.bench_seq);
    if (kind == kind_of.end()) continue;
    if (kind->second != kAggregateGet) {
      fwd_us.push_back(span.us());
      continue;
    }
    agg_us.push_back(span.us());
    const auto it = legs.find(span.trace_id);
    const std::size_t n = it == legs.end() ? 0 : it->second.size();
    legs_per_agg.push_back(static_cast<double>(n));
    double slowest = 0.0;
    if (n != 0) {
      for (const HandlerSpan* leg : it->second) slowest = std::max(slowest, leg->us());
      agg_self_us.push_back(span.us() - slowest);
    }
  }
  report.AddLatency(Scope::kDetail, "federation.router_us.fwd.p50",
                    "federation.router_us.fwd.p99", Summarize(fwd_us), "us");
  report.AddLatency(Scope::kDetail, "federation.router_us.agg.p50",
                    "federation.router_us.agg.p99", Summarize(agg_us), "us");
  report.AddLatency(Scope::kDetail, "federation.shard_us.p50", "federation.shard_us.p99",
                    Summarize(shard_us), "us");
  report.Add(Scope::kDetail, "federation.router_self_us.agg.p50", Median(agg_self_us), "us");
  double legs_total = 0.0;
  for (const double n : legs_per_agg) legs_total += n;
  report.Add(Scope::kDetail, "federation.legs_per_agg",
             legs_per_agg.empty() ? 0.0 : legs_total / static_cast<double>(legs_per_agg.size()),
             "count");
  if (legs_per_agg.empty() || legs_total == 0.0) {
    report.Fail("traced aggregated GETs could not be matched to their shard legs");
  }
}

}  // namespace

void RunFederatedRead(const Options& options, Report& report) {
  std::unique_ptr<FedStack> stack;
  std::vector<FedMix> mixes;
  std::vector<double> setup_s;
  for (int round = 0; round < kSetups; ++round) {
    mixes.clear();
    stack.reset();
    const std::uint64_t start = NowNs();
    stack = std::make_unique<FedStack>();
    const std::string error = stack->Build(options.trace);
    if (!error.empty()) {
      report.Fail("federated_read set-up: " + error);
      return;
    }
    for (std::size_t c = 0; c < kConnections; ++c) mixes.emplace_back(stack->inventory, options.seed, c);
    // Warm-up: every leaf and block once through the router (location
    // cache, pooled upstream connections, shard caches), plus aggregations.
    std::vector<std::string> targets = stack->inventory.fabric_leaves;
    targets.insert(targets.end(), stack->inventory.blocks.begin(), stack->inventory.blocks.end());
    for (int i = 0; i < 16; ++i) targets.push_back(ofmf::core::kResourceBlocks);
    DriverConfig config;
    config.port = stack->router_server.port();
    config.connections = kConnections;
    config.deadline_ns = ~0ull;
    config.max_ops = targets.size();
    std::size_t next_target = 0;
    const DriverResult warm = RunClosedLoop(
        config,
        [&](std::size_t) {
          Op op;
          op.target = targets[next_target++ % targets.size()];
          op.kind = op.target == ofmf::core::kResourceBlocks ? kAggregateGet : kFabricGet;
          return op;
        },
        FedChecker(stack->inventory));
    setup_s.push_back(SecondsSince(start));
    if (warm.failed != 0) {
      report.Fail("federated_read warm-up: " + std::to_string(warm.failed) +
                  " failed, first: " + warm.failures.front());
      return;
    }
  }
  report.Add(Scope::kEndToEnd, "setup_s", Median(setup_s), "s");
  report.Stamp("io_backend", stack->router_server.backend_name());
  report.Stamp("federation", std::to_string(kShards) + " shards, " +
                                 std::to_string(stack->inventory.fabric_leaves.size()) +
                                 " fabric leaves, " +
                                 std::to_string(stack->inventory.blocks_total) + " blocks");

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const FedWindow plain = Measure(*stack, mixes, seconds, false, 1);
  report.CountOps(plain.result.attempted, plain.result.failed);
  for (const std::string& why : plain.result.failures) report.Fail(why);
  AddClientMetrics(report, plain.result, {kFabricGet, kBlockGet}, {kAggregateGet},
                   {kFabricPatch});
  report.Add(Scope::kDetail, "rps", report.value("ops_per_s"), "req/s");
  Latency agg = Summarize(LatenciesOf(plain.result.samples, {kAggregateGet}));
  report.AddLatency(Scope::kDetail, "agg_p50_us", "agg_p99_us", agg, "us");

  FedWindow traced;
  if (options.trace) {
    ofmf::trace::TraceRecorder::instance().set_sampling(1.0);
    stack->router_spans.set_enabled(true);
    stack->shard_spans.set_enabled(true);
    traced = Measure(*stack, mixes, seconds, true, plain.result.next_seq);
    stack->router_spans.set_enabled(false);
    stack->shard_spans.set_enabled(false);
    ofmf::trace::TraceRecorder::instance().set_sampling(0.0);
    report.CountOps(traced.result.attempted, traced.result.failed);
    for (const std::string& why : traced.result.failures) report.Fail(why);

    const std::vector<HandlerSpan> router_spans = stack->router_spans.Take();
    const std::vector<HandlerSpan> shard_spans = stack->shard_spans.Take();
    const LayerSplit split = SplitByLayer(traced.result.samples, router_spans);
    std::vector<double> shard_us;
    for (const HandlerSpan& span : shard_spans) shard_us.push_back(span.us());
    AddLayerTimings(report, split, shard_us, Median(LatenciesOf(plain.result.samples, {})),
                    Median(LatenciesOf(traced.result.samples, {})));
    AddFederationDetail(report, traced, router_spans, shard_spans);
  }
  const FedWindow& counted = options.trace ? traced : plain;
  const double routed = static_cast<double>(std::max<std::size_t>(counted.result.samples.size(), 1));
  report.Add(Scope::kDetail, "federation.probes_per_req",
             static_cast<double>(counted.routing_after.probes - counted.routing_before.probes) /
                 routed,
             "count");
  report.Add(Scope::kDetail, "federation.directory_calls_per_req",
             static_cast<double>(counted.directory_after - counted.directory_before) / routed,
             "count");
  AddCacheCounters(report, counted.cache_before, counted.cache_after,
                   LatenciesOf(counted.result.samples, {kFabricPatch}).size());
  std::uint64_t shard_overload = 0, shard_rate_limited = 0;
  for (std::size_t s = 0; s < counted.shards_after.size(); ++s) {
    shard_overload += counted.shards_after[s].overload_rejections -
                      counted.shards_before[s].overload_rejections;
    shard_rate_limited += counted.shards_after[s].rate_limited_rejections -
                          counted.shards_before[s].rate_limited_rejections;
  }
  AddServerCounters(report, counted.router_before, counted.router_after, shard_overload,
                    shard_rate_limited);
  AddProcCounters(report, counted.proc_before, counted.proc_after, counted.result.samples.size(),
                  counted.idle_threads, counted.peak_threads);
  report.Add(Scope::kEndToEnd, "peak_rss_mb", ReadProcCounters().max_rss_mib, "MiB");
}

}  // namespace perfbench
