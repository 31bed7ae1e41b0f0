// FederationRouter: the stateless front tier of a federated OFMF. It
// terminates Redfish on the epoll reactor (Handler() plugs straight into
// TcpServer), routes each URI to the owning shard over pooled keep-alive
// TcpClients, aggregates collection GETs by gathering every shard's page in
// one batch on the calling worker and splicing their member bytes, and
// forwards cross-shard composition as a two-phase claim (wire ETag-CAS on
// every block, then an idempotent POST to the home shard) with rollback on
// partial failure. See DESIGN.md "Federation".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/trace.hpp"
#include "federation/directory_client.hpp"
#include "federation/fleet.hpp"
#include "federation/routing.hpp"
#include "http/server.hpp"

namespace ofmf::federation {

struct RouterOptions {
  /// Per-request bound on each downstream shard call.
  int downstream_timeout_ms = 5000;
  /// ETag-CAS attempts per block claim before giving up (matches the
  /// shard-local ClaimBlock retry budget).
  int claim_attempts = 4;
  /// Requests slower than this dump the *assembled* cross-process trace tree
  /// (router spans stitched with every shard's TraceDump fragment) via
  /// OFMF_WARN; 0 (default) disables. Only meaningful with sampling on.
  int slow_trace_ms = 0;
};

struct RouterStats {
  std::uint64_t forwarded = 0;          // single-shard forwards
  std::uint64_t aggregations = 0;       // scatter-gather collection GETs
  std::uint64_t degraded_aggregations = 0;  // ... with shards omitted
  std::uint64_t members_omitted = 0;    // members lost to degraded responses
  std::uint64_t probes = 0;             // ownership-probe GETs issued
  std::uint64_t cross_shard_composes = 0;
  std::uint64_t compose_rollbacks = 0;  // two-phase unwinds executed
};

class FederationRouter {
 public:
  explicit FederationRouter(std::shared_ptr<DirectoryClient> directory,
                            RouterOptions options = {});

  http::Response Route(const http::Request& request);
  http::ServerHandler Handler() {
    return [this](const http::Request& request) { return Route(request); };
  }

  /// Downstream sends to shard S probe fault point "federation.shard.<S>"
  /// first (kDropConnection/kCrash: the send never happens — a dead shard;
  /// kErrorStatus: the shard answers that status; kDelay: added latency).
  void set_fault_injector(std::shared_ptr<FaultInjector> faults) {
    std::lock_guard<std::mutex> lock(mu_);
    faults_ = std::move(faults);
  }

  RouterStats stats() const;

  /// Stitches the router's spans for `trace_id` with every live shard's
  /// TraceDump fragment into one deduped, start-ordered span set, and
  /// renders it as {TraceId, Nodes, Spans, Tree}. Served by the router's
  /// own Actions/OfmfService.TraceDump and used by the slow-request dump.
  json::Json AssembleTrace(std::uint64_t trace_id, const RoutingTable& table);

 private:
  /// One downstream request of a SendAll batch.
  struct ShardCall {
    const ShardInfo* shard;
    http::Request request;
  };
  /// Takes each call's outcome as it lands (index into the batch); returns
  /// false when the response is unusable, which marks the leg's span failed.
  using OnShardResponse =
      std::function<bool(std::size_t index, Result<http::Response>& response)>;

  /// Route() minus the tracing wrapper (wire adoption, router.route span,
  /// trace-id echo, slow-trace assembly).
  http::Response RouteInner(const http::Request& request);

  /// Router-served observability endpoints: the fleet TelemetryService
  /// (merged MetricReports + FleetHealth), the fleet MetricsDump, and the
  /// assembled TraceDump. nullopt = not one of ours, route normally.
  std::optional<http::Response> TelemetryIntercept(const http::Request& request,
                                                   const RoutingTable& table,
                                                   const std::string& path);
  /// Scatter-gathers every live shard's MetricsDump into one FleetMetrics.
  FleetMetrics GatherFleetMetrics(const RoutingTable& table);
  std::vector<trace::SpanRecord> AssembleTraceSpans(std::uint64_t trace_id,
                                                    const RoutingTable& table);

  Result<RoutingTable> TableNow();
  /// Ring for the current epoch (rebuilt only on epoch change).
  HashRing RingFor(const RoutingTable& table);
  std::shared_ptr<http::TcpClient> ClientFor(const ShardInfo& shard);
  /// Sends every call through its shard's fault point in one
  /// TcpClient::SendBatch on the calling thread. With `leg_span` set, each
  /// call gets a span of that name under the ambient context and stamps that
  /// span's identity on the wire; otherwise it stamps the ambient context.
  void SendAll(std::vector<ShardCall> calls, const char* leg_span,
               const OnShardResponse& on_response);
  /// One downstream call: SendAll with one call and no span of its own.
  Result<http::Response> SendToShard(const ShardInfo& shard, const http::Request& request);

  http::Response ForwardTo(const ShardInfo& shard, const http::Request& request);
  /// The shard serving non-sharded traffic (service root, sessions,
  /// subscriptions): ring owner of kRootKey, else first alive shard.
  const ShardInfo* DefaultShard(const RoutingTable& table, const HashRing& ring);

  http::Response AggregateCollection(const http::Request& request,
                                     const RoutingTable& table);
  /// Count-only fetch ($top=0) for shards outside the requested page window.
  Result<long long> FetchCount(const ShardInfo& shard, const std::string& path,
                               const std::map<std::string, std::string>& base_query);

  /// Owner of a URI the ring cannot place (systems, blocks, chassis):
  /// location cache, then GET-probe shards in table order.
  Result<ShardInfo> ResolveResourceShard(const std::string& uri,
                                         const RoutingTable& table);

  http::Response ComposeRoute(const http::Request& request, const RoutingTable& table);
  http::Response DecomposeRoute(const http::Request& request, const RoutingTable& table);
  /// Phase-1 claim of one block by wire ETag-CAS; idempotent under `txn`
  /// (a block already Composed with ClaimedBy == txn counts as claimed).
  /// Returns the block's payload on success (capabilities travel to the
  /// home shard so its summaries include remote blocks).
  Result<json::Json> ClaimBlockOnShard(const ShardInfo& shard, const std::string& uri,
                                       const std::string& txn);
  /// Release PATCHes (unconditional) on every claimed block. `is_rollback`
  /// distinguishes a failed-compose unwind from a decompose release in stats.
  void ReleaseClaims(const std::vector<std::pair<ShardInfo, std::string>>& claimed,
                     bool is_rollback = true);

  void CacheLocation(const std::string& uri, const std::string& shard_id);
  void CacheCount(const std::string& path, const std::string& shard_id, long long count);
  std::optional<long long> CachedCount(const std::string& path, const std::string& shard_id);

  std::shared_ptr<DirectoryClient> directory_;
  RouterOptions options_;

  mutable std::mutex mu_;
  std::shared_ptr<FaultInjector> faults_;
  std::uint64_t ring_epoch_ = 0;
  bool have_ring_ = false;
  HashRing ring_;
  std::map<std::string, std::shared_ptr<http::TcpClient>> clients_;  // shard id -> client
  std::map<std::string, std::uint16_t> client_ports_;
  std::map<std::string, std::string> locations_;  // resource uri -> shard id
  std::map<std::string, long long> counts_;       // path|shard -> last known count
  std::atomic<std::uint64_t> txn_counter_{1};

  std::atomic<std::uint64_t> forwarded_{0}, aggregations_{0}, degraded_{0},
      omitted_members_{0}, probes_{0}, composes_{0}, rollbacks_{0};
};

}  // namespace ofmf::federation
