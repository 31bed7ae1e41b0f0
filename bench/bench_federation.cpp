// Federation scaling bench: the directory + router front tier over 1, 2 and
// 4 OFMF shards. Every shard handler carries a fixed per-request service
// cost (a sleep standing in for real fabric/agent work, bounded by 4 shard
// workers), so aggregate req/s is capacity-limited per shard and adding
// shards must scale throughput — the router's whole value proposition. The
// load shape is an event-driven epoll driver over keep-alive connections,
// each rotating through fabric GET paths that interleave the
// shards evenly (the ring's fabric placement is honored: every path is
// created on its ring owner).
//
// A second phase measures cross-shard composition p50/p99 through the
// two-phase claim path, and a fault-injected shard death mid-compose checks
// that the rollback leaves no leaked claims and no half-composed system.
//
// Emits BENCH_federation.json. In full mode the ISSUE's acceptance bars are
// asserted: >= 1.7x req/s at 2 shards and >= 3x at 4 shards vs the 1-shard
// baseline (exit non-zero on a miss). --smoke shrinks budgets for CI and
// skips the bars.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.hpp"
#include "common/stats.hpp"
#include "federation/directory.hpp"
#include "federation/directory_client.hpp"
#include "federation/router.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"
#include "json/parse.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"

using namespace ofmf;
using json::Json;

namespace {

/// Per-request service cost a shard pays before answering: stands in for the
/// fabric/agent/store work a real shard does, and makes each shard
/// capacity-limited (kShardWorkers concurrent requests / kServiceMs each) so
/// the scaling curve measures shard fan-out, not loopback syscall throughput.
constexpr int kServiceMs = 3;
constexpr std::size_t kShardWorkers = 4;
constexpr std::size_t kRouterWorkers = 32;

struct BenchShard {
  std::string id;
  core::OfmfService service;
  http::TcpServer server;
};

/// A full federated deployment: directory + `shard_count` shards (each with
/// the service-cost handler) + router, with `fabrics_per_shard` fabrics
/// placed on their ring owners.
struct Deployment {
  federation::DirectoryService directory;
  std::vector<std::unique_ptr<BenchShard>> shards;
  std::unique_ptr<federation::FederationRouter> router;
  http::TcpServer router_server;
  std::vector<std::string> fabric_paths;  // interleaved across shards

  bool Start(std::size_t shard_count, std::size_t fabrics_per_shard) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      auto shard = std::make_unique<BenchShard>();
      shard->id = "s" + std::to_string(s + 1);
      if (!shard->service.Bootstrap().ok()) return false;
      shard->service.set_shard_identity(shard->id);
      http::ServerOptions options;
      options.workers = kShardWorkers;
      options.max_connections = 4096;
      options.max_queued_requests = 16384;
      auto handler = shard->service.Handler();
      const auto slow_handler = [handler](const http::Request& request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kServiceMs));
        return handler(request);
      };
      if (!shard->server.Start(slow_handler, 0, options).ok()) return false;
      directory.Register(shard->id, shard->server.port());
      shards.push_back(std::move(shard));
    }

    // Place fabrics on their ring owners until every shard holds the same
    // number, then interleave the paths shard-by-shard so a rotating driver
    // hits the shards in equal proportion.
    const federation::HashRing ring(directory.Table());
    std::vector<std::vector<std::string>> per_shard(shard_count);
    for (int candidate = 0; ; ++candidate) {
      const std::string fabric_id = "fab" + std::to_string(candidate);
      const auto owner = ring.OwnerOf("fabric:" + fabric_id);
      if (!owner) return false;
      std::size_t index = 0;
      while (index < shards.size() && shards[index]->id != *owner) ++index;
      if (per_shard[index].size() >= fabrics_per_shard) {
        bool done = true;
        for (const auto& paths : per_shard) {
          if (paths.size() < fabrics_per_shard) done = false;
        }
        if (done) break;
        continue;
      }
      if (!shards[index]->service
               .CreateFabricSkeleton(fabric_id, "NVMeoF", *owner)
               .ok()) {
        return false;
      }
      per_shard[index].push_back(core::FabricUri(fabric_id));
    }
    for (std::size_t i = 0; i < fabrics_per_shard; ++i) {
      for (std::size_t s = 0; s < shard_count; ++s) {
        fabric_paths.push_back(per_shard[s][i]);
      }
    }

    router = std::make_unique<federation::FederationRouter>(
        std::make_shared<federation::DirectoryClient>(
            std::make_unique<http::InProcessClient>(directory.Handler())));
    http::ServerOptions router_options;
    router_options.workers = kRouterWorkers;
    router_options.max_connections = 4096;
    router_options.max_queued_requests = 16384;
    return router_server.Start(router->Handler(), 0, router_options).ok();
  }

  void Stop() {
    router_server.Stop();
    for (auto& shard : shards) shard->server.Stop();
  }
};

// ------------------------------------------------------------ the driver ---

struct LevelResult {
  std::size_t shard_count = 0;
  std::size_t connections = 0;
  std::size_t requests = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t errors = 0;
};

/// Event-driven driver over keep-alive connections: each connection rotates
/// through `paths` (offset by its index) so the load spreads over every
/// shard behind the router.
LevelResult RunLevel(std::uint16_t port, std::size_t connections,
                     std::size_t requests_per_conn,
                     const std::vector<std::string>& paths) {
  struct DriverConn {
    int fd = -1;
    http::WireParser parser{http::WireParser::Mode::kResponse};
    std::string wire;
    std::size_t out_off = 0;
    std::size_t remaining = 0;
    std::size_t path_index = 0;
    std::uint32_t mask = 0;
    std::chrono::steady_clock::time_point t0;
  };

  const auto wire_for = [&](std::size_t path_index) {
    return "GET " + paths[path_index % paths.size()] +
           " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  };

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<DriverConn> conns(connections);
  std::vector<double> latencies;
  latencies.reserve(connections * requests_per_conn);
  std::size_t errors = 0;
  std::size_t active = 0;

  const auto set_mask = [&](std::size_t i, std::uint32_t want) {
    DriverConn& c = conns[i];
    if (c.mask == want) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = i;
    ::epoll_ctl(ep, c.mask == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, c.fd, &ev);
    c.mask = want;
  };

  const auto open_conn = [&](std::size_t i) -> bool {
    DriverConn& c = conns[i];
    c.t0 = std::chrono::steady_clock::now();
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(c.fd);
      c.fd = -1;
      return false;
    }
    c.wire = wire_for(c.path_index++);
    c.out_off = 0;
    c.parser.Reset();
    c.mask = 0;
    set_mask(i, EPOLLOUT | EPOLLIN);
    return true;
  };

  const auto drop = [&](std::size_t i) {
    DriverConn& c = conns[i];
    if (c.fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
      c.mask = 0;
    }
  };

  const auto fail_request = [&](std::size_t i) {
    DriverConn& c = conns[i];
    ++errors;
    drop(i);
    if (c.remaining > 0) {
      --c.remaining;
      if (c.remaining > 0 && open_conn(i)) return;
    }
    --active;
  };

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < connections; ++i) {
    conns[i].remaining = requests_per_conn;
    conns[i].path_index = i;  // stagger the rotation across connections
    if (open_conn(i)) {
      ++active;
    } else {
      ++errors;
    }
  }

  std::array<epoll_event, 512> events;
  char buffer[16384];
  while (active > 0) {
    const int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 20000);
    if (n <= 0) break;  // stall: counted below as missing requests
    for (int e = 0; e < n; ++e) {
      const std::size_t i = events[e].data.u64;
      DriverConn& c = conns[i];
      if (c.fd < 0) continue;

      if ((events[e].events & EPOLLOUT) != 0 && c.out_off < c.wire.size()) {
        const ssize_t sent = ::send(c.fd, c.wire.data() + c.out_off,
                                    c.wire.size() - c.out_off, MSG_NOSIGNAL);
        if (sent <= 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          fail_request(i);
          continue;
        }
        if (sent > 0) c.out_off += static_cast<std::size_t>(sent);
        if (c.out_off == c.wire.size()) set_mask(i, EPOLLIN);
      }

      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      bool closed = false;
      while (true) {
        const ssize_t got = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          c.parser.Feed(std::string_view(buffer, static_cast<std::size_t>(got)));
          if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
          continue;
        }
        if (got == 0) {
          closed = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        closed = true;
        break;
      }

      if (c.parser.HasMessage()) {
        auto response = c.parser.TakeResponse();
        if (!response.ok() || response->status != 200) {
          fail_request(i);
          continue;
        }
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - c.t0)
                                .count());
        --c.remaining;
        if (c.remaining == 0) {
          drop(i);
          --active;
        } else if (!closed) {
          c.t0 = std::chrono::steady_clock::now();
          c.wire = wire_for(c.path_index++);
          c.out_off = 0;
          set_mask(i, EPOLLOUT | EPOLLIN);
        } else {
          drop(i);
          if (!open_conn(i)) {
            ++errors;
            --active;
          }
        }
      } else if (closed) {
        fail_request(i);
      }
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (std::size_t i = 0; i < connections; ++i) drop(i);
  ::close(ep);

  LevelResult result;
  result.connections = connections;
  result.requests = latencies.size();
  result.errors = connections * requests_per_conn - latencies.size();
  result.rps = elapsed > 0 ? static_cast<double>(latencies.size()) / elapsed : 0.0;
  if (!latencies.empty()) {
    result.p50_us = Percentile(latencies, 50.0);
    result.p99_us = Percentile(latencies, 99.0);
  }
  return result;
}

// ----------------------------------------------------- compose p99 phase ---

struct ComposeResult {
  std::size_t composes = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t errors = 0;
  bool fault_rollback_clean = false;
};

std::string BlockState(BenchShard& shard, const std::string& uri) {
  const http::Response response =
      shard.service.Handle(http::MakeRequest(http::Method::kGet, uri));
  if (!response.ok()) return "<unreachable>";
  auto doc = json::Parse(response.body.view());
  if (!doc.ok()) return "<malformed>";
  return doc.value().at("CompositionStatus").GetString("CompositionState");
}

/// Cross-shard compose/decompose cycles through the router's two-phase
/// claim, then one fault-injected shard death mid-compose: the rollback must
/// leave both blocks Unused and no system behind.
ComposeResult RunComposePhase(Deployment& deployment, std::size_t iterations) {
  ComposeResult result;
  BenchShard& s1 = *deployment.shards[0];
  BenchShard& s2 = *deployment.shards[1];
  for (int i = 0; i < 2; ++i) {
    core::BlockCapability block;
    block.id = "bench-blk-" + std::to_string(i);
    block.block_type = "Compute";
    block.cores = 8;
    block.memory_gib = 32;
    // One block on each of the first two shards: every compose crosses.
    (void)(i == 0 ? s1 : s2).service.composition().RegisterBlock(block);
  }
  const std::string block_a = std::string(core::kResourceBlocks) + "/bench-blk-0";
  const std::string block_b = std::string(core::kResourceBlocks) + "/bench-blk-1";
  const Json body = Json::Obj(
      {{"Name", "fed-bench"},
       {"Links",
        Json::Obj({{"ResourceBlocks",
                    Json::Arr({Json::Obj({{"@odata.id", block_a}}),
                               Json::Obj({{"@odata.id", block_b}})})}})}});

  std::vector<double> latencies_ms;
  latencies_ms.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const http::Response composed = deployment.router->Route(
        http::MakeJsonRequest(http::Method::kPost, core::kSystems, body));
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
    if (composed.status != 201) {
      ++result.errors;
      continue;
    }
    const std::string system_uri = composed.headers.GetOr("Location", "");
    const http::Response deleted = deployment.router->Route(
        http::MakeRequest(http::Method::kDelete, system_uri));
    if (deleted.status != 204) ++result.errors;
  }
  result.composes = latencies_ms.size();
  if (!latencies_ms.empty()) {
    result.p50_ms = Percentile(latencies_ms, 50.0);
    result.p99_ms = Percentile(latencies_ms, 99.0);
  }

  // Shard death mid-compose: s2 (owner of the second claimed block) dies for
  // the whole attempt; the claim on s1's block must be rolled back.
  auto faults = std::make_shared<FaultInjector>(2026);
  deployment.router->set_fault_injector(faults);
  faults->ArmProbability("federation.shard." + s2.id, FaultKind::kDropConnection, 1.0);
  const http::Response failed = deployment.router->Route(
      http::MakeJsonRequest(http::Method::kPost, core::kSystems, body));
  faults->Disarm("federation.shard." + s2.id);
  deployment.router->set_fault_injector(nullptr);
  const bool no_system =
      failed.status >= 500 && BlockState(s1, block_a) == "Unused" &&
      BlockState(s2, block_b) == "Unused";
  const http::Response systems = deployment.router->Route(
      http::MakeRequest(http::Method::kGet, core::kSystems));
  auto systems_doc = json::Parse(systems.body.view());
  result.fault_rollback_clean =
      no_system && systems_doc.ok() &&
      systems_doc.value().GetInt("Members@odata.count", -1) == 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_federation.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::vector<std::size_t> shard_levels = {1, 2, 4};
  const std::size_t connections = smoke ? 16 : 48;
  const std::size_t fabrics_per_shard = smoke ? 4 : 8;
  // rps is normalized, so levels need the same concurrency, not the same
  // request count; bigger deployments get bigger budgets so every level
  // measures a comparable steady-state window.
  const auto requests_for = [&](std::size_t shard_count) -> std::size_t {
    if (smoke) return 10;
    return 60 * shard_count;
  };
  constexpr double kRequiredSpeedupAt2 = 1.7;
  constexpr double kRequiredSpeedupAt4 = 3.0;

  std::printf("federation scaling bench%s: router + directory over 1/2/4 shards\n"
              "(per-request shard cost %d ms, %zu shard workers -> each shard is\n"
              " capacity-limited; scaling comes from the router's fan-out)\n\n",
              smoke ? " (smoke)" : "", kServiceMs, kShardWorkers);

  std::vector<LevelResult> levels;
  ComposeResult compose;
  for (const std::size_t shard_count : shard_levels) {
    Deployment deployment;
    if (!deployment.Start(shard_count, fabrics_per_shard)) {
      std::fprintf(stderr, "failed to start %zu-shard deployment\n", shard_count);
      return 1;
    }
    // Warm-up outside the measurement: directory table, ring, pooled
    // connections, shard-side caches.
    (void)RunLevel(deployment.router_server.port(), 4, 4, deployment.fabric_paths);

    LevelResult result = RunLevel(deployment.router_server.port(), connections,
                                  requests_for(shard_count), deployment.fabric_paths);
    result.shard_count = shard_count;
    std::printf("  %zu shard%s: %5zu conns  %8.0f req/s  p50 %8.1f us  "
                "p99 %8.1f us%s\n",
                shard_count, shard_count == 1 ? " " : "s", result.connections,
                result.rps, result.p50_us, result.p99_us,
                result.errors ? "  (ERRORS)" : "");
    levels.push_back(result);

    if (shard_count == 2) {
      // The compose phase needs exactly a cross-shard pair; run it on the
      // 2-shard deployment.
      compose = RunComposePhase(deployment, smoke ? 5 : 60);
    }
    deployment.Stop();
  }

  const double base_rps = levels[0].rps;
  double speedup_at_2 = 0.0;
  double speedup_at_4 = 0.0;
  json::Array rows;
  std::size_t total_errors = compose.errors;
  std::printf("\nscaling (vs 1 shard):\n");
  for (const LevelResult& level : levels) {
    const double speedup = base_rps > 0 ? level.rps / base_rps : 0.0;
    if (level.shard_count == 2) speedup_at_2 = speedup;
    if (level.shard_count == 4) speedup_at_4 = speedup;
    total_errors += level.errors;
    std::printf("  %zu shards: %5.2fx req/s\n", level.shard_count, speedup);
    rows.push_back(Json::Obj(
        {{"shards", static_cast<std::int64_t>(level.shard_count)},
         {"connections", static_cast<std::int64_t>(level.connections)},
         {"requests", static_cast<std::int64_t>(level.requests)},
         {"rps", level.rps},
         {"p50_us", level.p50_us},
         {"p99_us", level.p99_us},
         {"speedup_vs_1_shard", speedup}}));
  }
  std::printf("\ncross-shard compose (2 shards): %zu composes, p50 %.1f ms, "
              "p99 %.1f ms\n",
              compose.composes, compose.p50_ms, compose.p99_ms);
  std::printf("fault-injected rollback clean: %s\n",
              compose.fault_rollback_clean ? "yes" : "NO");

  const bool bar_applies = !smoke;
  const bool bars_met =
      speedup_at_2 >= kRequiredSpeedupAt2 && speedup_at_4 >= kRequiredSpeedupAt4;
  Json results = Json::Obj(
      {{"smoke", smoke},
       {"service_cost_ms", kServiceMs},
       {"shard_workers", static_cast<std::int64_t>(kShardWorkers)},
       {"router_workers", static_cast<std::int64_t>(kRouterWorkers)},
       {"required_speedup_at_2_shards", kRequiredSpeedupAt2},
       {"required_speedup_at_4_shards", kRequiredSpeedupAt4},
       {"speedup_at_2_shards", speedup_at_2},
       {"speedup_at_4_shards", speedup_at_4},
       {"speedup_bars_met", !bar_applies || bars_met},
       {"cross_shard_compose",
        Json::Obj({{"composes", static_cast<std::int64_t>(compose.composes)},
                   {"p50_ms", compose.p50_ms},
                   {"p99_ms", compose.p99_ms},
                   {"fault_rollback_clean", compose.fault_rollback_clean}})},
       {"errors", static_cast<std::int64_t>(total_errors)},
       {"levels", Json(std::move(rows))}});
  std::ofstream out(out_path);
  out << json::SerializePretty(results) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  if (total_errors != 0) {
    std::fprintf(stderr, "FAIL: %zu request errors during the bench\n", total_errors);
    return 1;
  }
  if (!compose.fault_rollback_clean) {
    std::fprintf(stderr, "FAIL: shard death mid-compose leaked claims or a system\n");
    return 1;
  }
  if (bar_applies && !bars_met) {
    std::fprintf(stderr, "FAIL: %.2fx at 2 shards (need >= %.1fx), %.2fx at 4 "
                 "shards (need >= %.1fx)\n",
                 speedup_at_2, kRequiredSpeedupAt2, speedup_at_4,
                 kRequiredSpeedupAt4);
    return 1;
  }
  return 0;
}
