#include "ofmf/service.hpp"

#include <array>
#include <chrono>
#include <iterator>
#include <set>
#include <string_view>
#include <thread>

#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "http/uri.hpp"
#include "json/pointer.hpp"
#include "odata/annotations.hpp"
#include "ofmf/uris.hpp"
#include "redfish/conformance.hpp"
#include "redfish/errors.hpp"

namespace ofmf::core {
namespace {

// Per-endpoint HTTP latency histograms, keyed (method, top-level segment).
// The MetricReports subtree is deliberately unclassified: a metrics scrape
// must not move the counters it is reporting, or the report could never be
// ETag-stable. Resolved Histogram pointers are cached in an atomic table so
// the hot path never takes the registry mutex.
metrics::Histogram* EndpointHistogram(http::Method method, const std::string& path) {
  static constexpr const char* kSegments[] = {
      "ServiceRoot",   "Systems",          "Fabrics",
      "Chassis",       "SessionService",   "EventService",
      "TaskService",   "TelemetryService", "AggregationService",
      "CompositionService", "StorageServices", "Other"};
  constexpr std::size_t kNumSegments = std::size(kSegments);
  constexpr std::size_t kNumMethods = 7;  // http::Method enumerator count

  if (path.rfind(kMetricReports, 0) == 0) return nullptr;
  std::size_t segment = kNumSegments - 1;  // "Other"
  const std::string_view prefix = "/redfish/v1";
  if (path == prefix || path == "/redfish/v1/") {
    segment = 0;
  } else if (path.rfind(prefix, 0) == 0 && path.size() > prefix.size() &&
             path[prefix.size()] == '/') {
    const std::size_t begin = prefix.size() + 1;
    const std::size_t end = path.find('/', begin);
    const std::string_view name(path.data() + begin,
                                (end == std::string::npos ? path.size() : end) - begin);
    for (std::size_t i = 1; i + 1 < kNumSegments; ++i) {
      if (name == kSegments[i]) {
        segment = i;
        break;
      }
    }
  }
  static std::array<std::array<std::atomic<metrics::Histogram*>, kNumSegments>,
                    kNumMethods>
      table{};
  std::atomic<metrics::Histogram*>& slot =
      table[static_cast<std::size_t>(method) % kNumMethods][segment];
  metrics::Histogram* hist = slot.load(std::memory_order_acquire);
  if (hist == nullptr) {
    hist = &metrics::Registry::instance().histogram(
        std::string("http.latency.") + http::to_string(method) + "." + kSegments[segment]);
    slot.store(hist, std::memory_order_release);  // benign race: same pointer
  }
  return hist;
}

}  // namespace

OfmfService::OfmfService()
    : rest_(tree_, redfish::SchemaRegistry::BuiltIn()),
      sessions_(tree_),
      events_(tree_, clock_),
      tasks_(tree_, clock_),
      telemetry_(tree_, events_, clock_,
                 {[this] { return rest_.response_cache().stats(); },
                  [this] { return events_.CollectDelivery(); },
                  [this] { return CollectResilience(); }}),
      composition_(tree_, events_) {}

Status OfmfService::BootstrapServiceRoot() {
  OFMF_RETURN_IF_ERROR(tree_.Create(
      kServiceRoot, "#ServiceRoot.v1_15_0.ServiceRoot",
      json::Json::Obj({
          {"Id", "RootService"},
          {"Name", "OpenFabrics Management Framework"},
          {"RedfishVersion", "1.17.0"},
          {"UUID", "5cf3e329-57b6-4d92-9a2f-ofmf00000001"},
          {"Fabrics", odata::Ref(kFabrics)},
          {"Systems", odata::Ref(kSystems)},
          {"Chassis", odata::Ref(kChassis)},
          {"StorageServices", odata::Ref(kStorageServices)},
          {"SessionService", odata::Ref(kSessionService)},
          {"EventService", odata::Ref(kEventService)},
          {"TaskService", odata::Ref(kTaskService)},
          {"TelemetryService", odata::Ref(kTelemetryService)},
          {"AggregationService", odata::Ref(kAggregationService)},
          {"CompositionService", odata::Ref(kCompositionService)},
      })));
  OFMF_RETURN_IF_ERROR(
      tree_.CreateCollection(kFabrics, "#FabricCollection.FabricCollection", "Fabrics"));
  OFMF_RETURN_IF_ERROR(tree_.CreateCollection(
      kSystems, "#ComputerSystemCollection.ComputerSystemCollection", "Systems"));
  OFMF_RETURN_IF_ERROR(tree_.CreateCollection(
      kChassis, "#ChassisCollection.ChassisCollection", "Chassis"));
  OFMF_RETURN_IF_ERROR(tree_.CreateCollection(
      kStorageServices, "#StorageServiceCollection.StorageServiceCollection",
      "Storage Services"));
  OFMF_RETURN_IF_ERROR(tree_.Create(
      kAggregationService, "#AggregationService.v1_0_2.AggregationService",
      json::Json::Obj({{"Id", "AggregationService"},
                       {"Name", "Aggregation Service"},
                       {"ServiceEnabled", true},
                       {"AggregationSources", odata::Ref(kAggregationSources)}})));
  return tree_.CreateCollection(
      kAggregationSources, "#AggregationSourceCollection.AggregationSourceCollection",
      "Aggregation Sources");
}

Status OfmfService::Bootstrap() {
  if (bootstrapped_) return Status::FailedPrecondition("already bootstrapped");
  OFMF_RETURN_IF_ERROR(BootstrapServiceRoot());
  OFMF_RETURN_IF_ERROR(sessions_.Bootstrap());
  OFMF_RETURN_IF_ERROR(events_.Bootstrap());
  OFMF_RETURN_IF_ERROR(tasks_.Bootstrap());
  OFMF_RETURN_IF_ERROR(telemetry_.Bootstrap());
  OFMF_RETURN_IF_ERROR(composition_.Bootstrap());
  WireRoutes();
  bootstrapped_ = true;
  return Status::Ok();
}

void OfmfService::set_shard_identity(const std::string& shard_id) {
  shard_id_ = shard_id;
  composition_.set_system_id_prefix(shard_id);
  if (bootstrapped_ && !shard_id.empty()) {
    (void)tree_.Patch(
        kServiceRoot,
        json::Json::Obj(
            {{"Oem", json::Json::Obj({{"Ofmf", json::Json::Obj(
                                                   {{"ShardId", shard_id}})}})}}));
  }
}

void OfmfService::WireRoutes() {
  // Event subscriptions.
  rest_.RegisterFactory(kSubscriptions, "EventDestination",
                        [this](const json::Json& body) { return events_.Subscribe(body); });
  rest_.RegisterDeleteHook(kSubscriptions, [this](const std::string& uri) {
    if (uri == kSubscriptions) {
      return Status::PermissionDenied("collection cannot be deleted");
    }
    return events_.Unsubscribe(uri);
  });
  // Drain action for internal (ofmf-internal://) subscription queues, so
  // transport-agnostic clients can poll their events over plain Redfish.
  rest_.RegisterAction(
      "EventDestination.Drain",
      [this](const std::string& resource_uri, const json::Json&) -> http::Response {
        Result<std::vector<json::Json>> drained = events_.Drain(resource_uri);
        if (!drained.ok()) return redfish::ErrorResponse(drained.status());
        json::Array events(drained->begin(), drained->end());
        return http::MakeJsonResponse(
            200, json::Json::Obj({{"Events", json::Json(std::move(events))}}));
      });

  // Composition: POST Systems with block links; DELETE decomposes. A body
  // carrying Oem.Ofmf.Federation.PreClaimed is the federation router's
  // two-phase path: local blocks were already claimed over the wire, remote
  // blocks arrive as captured payloads, and the adopted composition takes
  // (and on failure releases) no claims of its own.
  rest_.RegisterFactory(
      kSystems, "ComputerSystem", [this](const json::Json& body) -> Result<std::string> {
        const json::Json* federation =
            json::ResolvePointerRef(body, "/Oem/Ofmf/Federation");
        const bool pre_claimed =
            federation != nullptr && federation->GetBool("PreClaimed", false);
        const json::Json* blocks =
            json::ResolvePointerRef(body, "/Links/ResourceBlocks");
        if (!pre_claimed &&
            (blocks == nullptr || !blocks->is_array() || blocks->as_array().empty())) {
          return Status::InvalidArgument(
              "composition requires Links.ResourceBlocks references");
        }
        std::vector<std::string> uris;
        if (blocks != nullptr && blocks->is_array()) {
          for (const json::Json& entry : blocks->as_array()) {
            const std::string uri = odata::IdOf(entry);
            if (uri.empty()) return Status::InvalidArgument("block reference missing @odata.id");
            uris.push_back(uri);
          }
        }
        const std::string name = body.GetString("Name", "composed-system");
        if (!pre_claimed) return composition_.Compose(name, uris);
        std::vector<RemoteBlock> remote;
        const json::Json* remote_blocks =
            json::ResolvePointerRef(*federation, "/RemoteBlocks");
        if (remote_blocks != nullptr && remote_blocks->is_array()) {
          for (const json::Json& entry : remote_blocks->as_array()) {
            RemoteBlock block;
            block.uri = entry.GetString("Uri");
            block.shard_id = entry.GetString("ShardId");
            block.payload = entry.at("Payload");
            if (block.uri.empty()) {
              return Status::InvalidArgument("remote block entry missing Uri");
            }
            remote.push_back(std::move(block));
          }
        }
        return composition_.ComposeAdopted(name, uris, remote,
                                           federation->GetString("Txn"));
      });
  rest_.RegisterDeleteHook(kSystems, [this](const std::string& uri) {
    if (uri == kSystems) return Status::PermissionDenied("collection cannot be deleted");
    return composition_.Decompose(uri);
  });

  // Dynamic expansion action (the OOM-mitigation path).
  rest_.RegisterAction(
      "ComputerSystem.AddResourceBlock",
      [this](const std::string& resource_uri, const json::Json& body) -> http::Response {
        const std::string block_uri = body.GetString("ResourceBlock");
        if (block_uri.empty()) {
          return redfish::ErrorResponse(
              Status::InvalidArgument("body must carry 'ResourceBlock': <uri>"));
        }
        const Status expanded = composition_.ExpandSystem(resource_uri, block_uri);
        if (!expanded.ok()) return redfish::ErrorResponse(expanded);
        return http::MakeJsonResponse(200, *tree_.Get(resource_uri));
      });

  // Session management hooks (creation is special-cased in Handle() because
  // the response must carry X-Auth-Token).
  rest_.RegisterDeleteHook(kSessions, [this](const std::string& uri) {
    if (uri == kSessions) return Status::PermissionDenied("collection cannot be deleted");
    const std::size_t slash = uri.rfind('/');
    return sessions_.DeleteSession(uri.substr(slash + 1));
  });

  // Tenant accounts: POST a tenant (id + QoS class + DRR weight + rate
  // limits + member users) to the Tenants collection; DELETE unbinds its
  // users and falls back to best-effort scheduling for their sessions.
  rest_.RegisterFactory(kTenants, "OfmfTenant",
                        [this](const json::Json& body) {
                          return sessions_.CreateTenantFromPayload(body);
                        });
  rest_.RegisterDeleteHook(kTenants, [this](const std::string& uri) {
    if (uri == kTenants) return Status::PermissionDenied("collection cannot be deleted");
    const std::size_t slash = uri.rfind('/');
    return sessions_.DeleteTenant(uri.substr(slash + 1));
  });

  // Self-check: POST /redfish/v1/Actions/OfmfService.Audit runs the
  // whole-tree conformance audit and returns the report.
  rest_.RegisterAction(
      "OfmfService.Audit",
      [this](const std::string&, const json::Json&) -> http::Response {
        const redfish::ConformanceReport report =
            redfish::AuditTree(tree_, rest_.schemas());
        json::Array issues;
        for (const redfish::ConformanceIssue& issue : report.issues) {
          issues.push_back(json::Json::Obj({{"Uri", issue.uri},
                                            {"Pointer", issue.pointer},
                                            {"Message", issue.message}}));
        }
        return http::MakeJsonResponse(
            200, json::Json::Obj(
                     {{"ResourcesChecked",
                       static_cast<std::int64_t>(report.resources_checked)},
                      {"ResourcesWithSchema",
                       static_cast<std::int64_t>(report.resources_with_schema)},
                      {"Clean", report.clean()},
                      {"Issues", json::Json(std::move(issues))}}));
      });

  // One-shot observability dump: every histogram (with percentiles and raw
  // buckets), every counter, the trace-recorder stats, and the cache,
  // delivery and breaker counters in one JSON document. Benches and
  // operators scrape this instead of stitching MetricReports together, and
  // the federation router merges these into its fleet reports.
  rest_.RegisterAction(
      "OfmfService.MetricsDump",
      [this](const std::string&, const json::Json&) -> http::Response {
        return http::MakeJsonResponse(
            200, RenderDump({"ShardId", shard_id_.empty() ? "ofmf" : shard_id_},
                            telemetry_.Collect()));
      });

  // This process's fragment of a (possibly cross-process) trace: the span
  // tree retained for a slow/error trace id, or the ring's spans as a
  // best-effort fallback. No TraceId lists the retained ids. The federation
  // router fetches these per shard and stitches them into one tree.
  rest_.RegisterAction(
      "OfmfService.TraceDump",
      [this](const std::string&, const json::Json& body) -> http::Response {
        trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
        const std::string origin_default = shard_id_.empty() ? "ofmf" : shard_id_;
        const std::string trace_hex = body.GetString("TraceId");
        if (trace_hex.empty()) {
          json::Array ids;
          for (const std::uint64_t id : recorder.RetainedTraceIds()) {
            ids.push_back(json::Json(trace::IdToHex(id)));
          }
          return http::MakeJsonResponse(
              200, json::Json::Obj({{"ShardId", origin_default},
                                    {"RetainedTraces", json::Json(std::move(ids))}}));
        }
        const std::uint64_t trace_id = trace::HexToId(trace_hex);
        if (trace_id == 0) {
          return redfish::ErrorResponse(
              Status::InvalidArgument("TraceId must be 16 hex digits"));
        }
        std::vector<trace::SpanRecord> spans = recorder.RetainedTrace(trace_id);
        if (spans.empty()) spans = recorder.TraceSpans(trace_id);
        json::Array out;
        for (const trace::SpanRecord& s : spans) {
          out.push_back(json::Json::Obj(
              {{"SpanId", trace::IdToHex(s.span_id)},
               {"ParentSpanId", trace::IdToHex(s.parent_span_id)},
               {"Name", s.name},
               {"Note", s.note},
               {"Origin", s.origin.empty() ? origin_default : s.origin},
               {"StartNs", static_cast<std::int64_t>(s.start_ns)},
               {"DurationNs", static_cast<std::int64_t>(s.duration_ns)},
               {"Thread", static_cast<std::int64_t>(s.thread_id)},
               {"Error", s.error}}));
        }
        return http::MakeJsonResponse(
            200, json::Json::Obj({{"TraceId", trace::IdToHex(trace_id)},
                                  {"ShardId", origin_default},
                                  {"Spans", json::Json(std::move(out))}}));
      });
}

std::optional<http::Response> OfmfService::Authenticate(const http::Request& request) {
  if (!sessions_.auth_required()) return std::nullopt;
  // Unauthenticated surface: the root document (GET or HEAD, per RFC 9110
  // HEAD is GET minus the body) and session creation.
  if (request.path == kServiceRoot && (request.method == http::Method::kGet ||
                                       request.method == http::Method::kHead)) {
    return std::nullopt;
  }
  if (request.path == kSessions && request.method == http::Method::kPost) {
    return std::nullopt;
  }
  const std::string token = request.headers.GetOr("X-Auth-Token", "");
  if (token.empty() || !sessions_.Authenticate(token)) {
    return redfish::ErrorResponse(401, "Base.1.0.NoValidSession",
                                  "authenticate via POST " + std::string(kSessions));
  }
  return std::nullopt;
}

Status OfmfService::CreateFabricSkeleton(const std::string& fabric_id,
                                         const std::string& fabric_type,
                                         const std::string& agent_id) {
  const std::string fabric_uri = FabricUri(fabric_id);
  OFMF_RETURN_IF_ERROR(tree_.Create(
      fabric_uri, "#Fabric.v1_3_0.Fabric",
      json::Json::Obj({
          {"Id", fabric_id},
          {"Name", fabric_id + " fabric"},
          {"FabricType", fabric_type},
          {"Status", json::Json::Obj({{"State", "Enabled"}, {"Health", "OK"}})},
          {"Endpoints", odata::Ref(fabric_uri + "/Endpoints")},
          {"Switches", odata::Ref(fabric_uri + "/Switches")},
          {"Zones", odata::Ref(fabric_uri + "/Zones")},
          {"Connections", odata::Ref(fabric_uri + "/Connections")},
          {"Oem", json::Json::Obj({{"Ofmf", json::Json::Obj({{"Agent", agent_id}})}})},
      })));
  OFMF_RETURN_IF_ERROR(tree_.AddMember(kFabrics, fabric_uri));
  // After crash recovery the sub-collections already exist with their member
  // lists; recreating them (even adopt-in-place) would wipe the membership,
  // so only materialize the ones actually missing.
  const auto ensure_collection = [&](const std::string& uri, const char* type,
                                     const char* name) -> Status {
    if (tree_.Exists(uri)) return Status::Ok();
    return tree_.CreateCollection(uri, type, name);
  };
  OFMF_RETURN_IF_ERROR(ensure_collection(
      fabric_uri + "/Endpoints", "#EndpointCollection.EndpointCollection", "Endpoints"));
  OFMF_RETURN_IF_ERROR(ensure_collection(
      fabric_uri + "/Switches", "#SwitchCollection.SwitchCollection", "Switches"));
  OFMF_RETURN_IF_ERROR(ensure_collection(fabric_uri + "/Zones",
                                         "#ZoneCollection.ZoneCollection", "Zones"));
  return ensure_collection(fabric_uri + "/Connections",
                           "#ConnectionCollection.ConnectionCollection", "Connections");
}

Status OfmfService::RegisterAgent(std::shared_ptr<FabricAgent> agent) {
  if (!bootstrapped_) return Status::FailedPrecondition("bootstrap the service first");
  const std::string fabric_id = agent->fabric_id();
  if (agents_by_fabric_.count(fabric_id) != 0) {
    return Status::AlreadyExists("an agent already owns fabric " + fabric_id);
  }

  // AggregationSource entry for the agent.
  const std::string source_uri =
      std::string(kAggregationSources) + "/" + agent->agent_id();
  OFMF_RETURN_IF_ERROR(tree_.Create(
      source_uri, "#AggregationSource.v1_2_0.AggregationSource",
      json::Json::Obj({{"Id", agent->agent_id()},
                       {"Name", "Agent " + agent->agent_id()},
                       {"HostName", "ofmf-agent://" + agent->agent_id()},
                       {"Links", json::Json::Obj({{"ConnectionMethod",
                                                   json::Json::Obj({{"FabricId",
                                                                     fabric_id}})}})}})));
  OFMF_RETURN_IF_ERROR(tree_.AddMember(kAggregationSources, source_uri));

  OFMF_RETURN_IF_ERROR(agent->PublishInventory(*this));

  // Route fabric-scoped mutations to the agent, guarded by its circuit
  // breaker, its call lock and (when an injector is attached) the
  // "agent.<id>" fault point.
  FabricGuard* guard = nullptr;
  {
    std::lock_guard<std::mutex> lock(fabric_guards_mu_);
    guard = fabric_guards_.try_emplace(fabric_id, std::make_unique<FabricGuard>())
                .first->second.get();
  }
  const std::string fabric_uri = FabricUri(fabric_id);
  FabricAgent* raw = agent.get();
  rest_.RegisterFactory(fabric_uri + "/Zones", "Zone",
                        [this, raw, guard, fabric_id](const json::Json& body) {
                          return GuardedAgentCreate(fabric_id, *guard, [&] {
                            return raw->CreateZone(*this, body);
                          });
                        });
  rest_.RegisterFactory(
      fabric_uri + "/Connections", "Connection",
      [this, raw, guard, fabric_id](const json::Json& body) {
        return GuardedAgentCreate(fabric_id, *guard,
                                  [&] { return raw->CreateConnection(*this, body); });
      });
  rest_.RegisterDeleteHook(
      fabric_uri, [this, raw, guard, fabric_uri, fabric_id](const std::string& uri) {
        if (uri == fabric_uri) {
          return Status::PermissionDenied("fabrics are owned by their agent");
        }
        return GuardedAgentDelete(fabric_id, *guard,
                                  [&] { return raw->DeleteResource(*this, uri); });
      });

  agents_by_fabric_.emplace(fabric_id, std::move(agent));

  Event event;
  event.event_type = "ResourceAdded";
  event.message_id = "AggregationService.1.0.AgentRegistered";
  event.message = "agent registered for fabric " + fabric_id;
  event.origin = source_uri;
  events_.Publish(event);
  return Status::Ok();
}

Result<FabricAgent*> OfmfService::AgentForFabric(const std::string& fabric_id) {
  auto it = agents_by_fabric_.find(fabric_id);
  if (it == agents_by_fabric_.end()) {
    return Status::NotFound("no agent for fabric " + fabric_id);
  }
  return it->second.get();
}

Result<CircuitBreaker*> OfmfService::BreakerForFabric(const std::string& fabric_id) {
  std::lock_guard<std::mutex> lock(fabric_guards_mu_);
  auto it = fabric_guards_.find(fabric_id);
  if (it == fabric_guards_.end()) {
    return Status::NotFound("no breaker for fabric " + fabric_id);
  }
  return &it->second->breaker;
}

bool OfmfService::FabricDegraded(const std::string& fabric_id) const {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  return degraded_uris_.count(fabric_id) != 0;
}

ResilienceSnapshot OfmfService::CollectResilience() const {
  ResilienceSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(fabric_guards_mu_);
    for (const auto& [fabric_id, guard] : fabric_guards_) {
      ResilienceSnapshot::FabricBreaker entry;
      entry.fabric_id = fabric_id;
      entry.state = guard->breaker.state();
      entry.stats = guard->breaker.stats();
      entry.degraded = FabricDegraded(fabric_id);
      snapshot.breakers.push_back(std::move(entry));
    }
  }
  {
    std::lock_guard<std::mutex> lock(replay_mu_);
    snapshot.replayed_posts = replay_hits_;
  }
  return snapshot;
}

json::Json OfmfService::HealthStats() {
  json::Json stats = json::Json::MakeObject();
  AppendResilienceSummary(stats.as_object(), CollectResilience(), /*with_counts=*/false);
  stats.as_object().Set("CacheHitRate", rest_.response_cache().stats().hit_rate());
  return stats;
}

Status OfmfService::InjectedAgentFault(const std::string& fabric_id) {
  if (faults_ == nullptr || !faults_->enabled()) return Status::Ok();
  const FaultDecision decision = faults_->Evaluate("agent." + fabric_id);
  switch (decision.kind) {
    case FaultKind::kNone:
      return Status::Ok();
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(decision.delay_ms));
      return Status::Ok();
    case FaultKind::kDropConnection:
    case FaultKind::kDropResponse:
    case FaultKind::kErrorStatus:
    case FaultKind::kCrash:
      return Status::Unavailable("agent for fabric " + fabric_id +
                                 " unreachable (injected " +
                                 std::string(to_string(decision.kind)) + ")");
    case FaultKind::kTornWrite:
    case FaultKind::kShortFsync:
      return Status::Ok();  // storage-only faults; no agent-path meaning
  }
  return Status::Ok();
}

void OfmfService::NoteAgentOutcome(const std::string& fabric_id, CircuitBreaker& breaker,
                                   const Status& status) {
  const BreakerState before = breaker.state();
  // Only transport-level failures are agent-health signals; a client error
  // (bad zone spec, unknown endpoint) says nothing about the agent's health.
  const bool health_failure = status.code() == ErrorCode::kUnavailable ||
                              status.code() == ErrorCode::kTimeout;
  if (health_failure) {
    breaker.RecordFailure();
  } else {
    breaker.RecordSuccess();
  }
  const BreakerState after = breaker.state();
  if (before != BreakerState::kOpen && after == BreakerState::kOpen) {
    metrics::Registry::instance().counter("breaker.opened").Increment();
    DegradeFabric(fabric_id);
  } else if (before != BreakerState::kClosed && after == BreakerState::kClosed) {
    metrics::Registry::instance().counter("breaker.closed").Increment();
    RestoreFabric(fabric_id);
  }
}

Result<std::string> OfmfService::GuardedAgentCreate(
    const std::string& fabric_id, FabricGuard& guard,
    const std::function<Result<std::string>()>& call) {
  trace::Span span("agent.call");
  if (span.active()) span.Note("fabric " + fabric_id);
  static metrics::Histogram& latency =
      metrics::Registry::instance().histogram("agent.call.ns");
  metrics::ScopedTimer timer(latency);
  if (!guard.breaker.Allow()) {
    if (span.active()) span.Note("rejected: circuit open");
    return Status::Unavailable("circuit open for fabric " + fabric_id +
                               "; serving degraded inventory");
  }
  const Status injected = InjectedAgentFault(fabric_id);
  if (!injected.ok()) {
    if (span.active()) span.Note("error: " + injected.message());
    NoteAgentOutcome(fabric_id, guard.breaker, injected);
    return injected;
  }
  Result<std::string> result = [&] {
    std::lock_guard<std::mutex> lock(guard.call_mu);
    return call();
  }();
  if (span.active() && !result.ok()) span.Note("error: " + result.status().message());
  NoteAgentOutcome(fabric_id, guard.breaker, result.status());
  return result;
}

Status OfmfService::GuardedAgentDelete(const std::string& fabric_id, FabricGuard& guard,
                                       const std::function<Status()>& call) {
  trace::Span span("agent.call");
  if (span.active()) span.Note("fabric " + fabric_id + " delete");
  static metrics::Histogram& latency =
      metrics::Registry::instance().histogram("agent.call.ns");
  metrics::ScopedTimer timer(latency);
  if (!guard.breaker.Allow()) {
    if (span.active()) span.Note("rejected: circuit open");
    return Status::Unavailable("circuit open for fabric " + fabric_id +
                               "; serving degraded inventory");
  }
  const Status injected = InjectedAgentFault(fabric_id);
  if (!injected.ok()) {
    if (span.active()) span.Note("error: " + injected.message());
    NoteAgentOutcome(fabric_id, guard.breaker, injected);
    return injected;
  }
  const Status result = [&] {
    std::lock_guard<std::mutex> lock(guard.call_mu);
    return call();
  }();
  if (span.active() && !result.ok()) span.Note("error: " + result.message());
  NoteAgentOutcome(fabric_id, guard.breaker, result);
  return result;
}

void OfmfService::DegradeFabric(const std::string& fabric_id) {
  const std::string fabric_uri = FabricUri(fabric_id);
  const json::Json degraded_status = json::Json::Obj(
      {{"Status", json::Json::Obj({{"State", "UnavailableOffline"},
                                   {"Health", "Critical"}})}});
  // A failed half-open probe re-opens the breaker and lands here again
  // while the subtree is still degraded; the first snapshot is the real
  // pre-outage state, so never re-snapshot a URI already recorded.
  std::set<std::string> already_saved;
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    auto it = degraded_uris_.find(fabric_id);
    if (it != degraded_uris_.end()) {
      for (const auto& [uri, status] : it->second) already_saved.insert(uri);
    }
  }
  std::vector<std::pair<std::string, json::Json>> touched;
  for (const std::string& uri : tree_.UrisUnder(fabric_uri)) {
    if (already_saved.count(uri) != 0) continue;
    const Result<json::Json> doc = tree_.GetRaw(uri);
    if (!doc.ok() || !doc->is_object() || !doc->as_object().Contains("Status")) continue;
    // Snapshot the pre-degradation Status so Restore puts back the real
    // health (a port a flapper had marked down must come back down, not OK).
    json::Json original = doc->at("Status");
    if (tree_.Patch(uri, degraded_status).ok()) {
      touched.emplace_back(uri, std::move(original));
    }
  }
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    auto& saved = degraded_uris_[fabric_id];
    saved.insert(saved.end(), std::make_move_iterator(touched.begin()),
                 std::make_move_iterator(touched.end()));
  }
  Event event;
  event.event_type = "StatusChange";
  event.message_id = "AggregationService.1.0.FabricDegraded";
  event.message = "circuit opened for fabric " + fabric_id +
                  "; inventory marked Critical and served stale";
  event.origin = fabric_uri;
  events_.Publish(event);
}

void OfmfService::RestoreFabric(const std::string& fabric_id) {
  std::vector<std::pair<std::string, json::Json>> touched;
  {
    std::lock_guard<std::mutex> lock(degraded_mu_);
    auto it = degraded_uris_.find(fabric_id);
    if (it == degraded_uris_.end()) return;
    touched = std::move(it->second);
    degraded_uris_.erase(it);
  }
  for (const auto& [uri, original_status] : touched) {
    (void)tree_.Patch(uri, json::Json::Obj({{"Status", original_status}}));
  }
  Event event;
  event.event_type = "StatusChange";
  event.message_id = "AggregationService.1.0.FabricRestored";
  event.message = "circuit closed for fabric " + fabric_id + "; inventory restored";
  event.origin = FabricUri(fabric_id);
  events_.Publish(event);
}

Result<store::RecoveryReport> OfmfService::EnableDurability(
    std::shared_ptr<store::PersistentStore> store) {
  if (!bootstrapped_) return Status::FailedPrecondition("bootstrap the service first");
  if (store_ != nullptr) return Status::FailedPrecondition("durability already enabled");
  if (store == nullptr) return Status::InvalidArgument("store must be non-null");
  store_ = std::move(store);

  OFMF_ASSIGN_OR_RETURN(store::PersistentStore::RecoveredState recovered,
                        store_->Recover(tree_));
  const bool restarted =
      recovered.report.had_snapshot || recovered.report.records_replayed > 0;
  if (restarted) {
    // The tree is now the pre-crash one; rebuild everything derived from it.
    // Tenants first: RestoreSession re-derives each session's tenant from
    // the user bindings the tenant resources carry.
    (void)sessions_.AdoptTenantsFromTree();
    for (const store::DurableSession& session : recovered.sessions) {
      // The tenant field is re-derived inside RestoreSession from the user's
      // tenant binding (tokens persist; tenant membership lives in the tree).
      sessions_.RestoreSession({session.id, session.user, session.token,
                                std::string(kSessions) + "/" + session.id, ""});
    }
    // Durable event state first (sequence counter, retained log, cursors),
    // so adopted subscriptions resume from their recovered cursor instead
    // of the frontier.
    events_.RestoreDurableEventState(recovered.events);
    (void)events_.AdoptSubscriptionsFromTree();
    // Cached responses were built from the pre-recovery (bootstrap) tree and
    // ImportState fires no change events, so invalidate wholesale.
    rest_.response_cache().Clear();
    // Agents re-registering will Create() resources that already exist in
    // the recovered tree; adopt-in-place until ReconcileWithAgents() runs.
    tree_.set_recovery_adopt(true);
  }

  // From here on every mutation is journaled. The callback runs under the
  // tree's exclusive lock: it must not re-enter the tree (recovery_adopt()
  // is a bare atomic read, LogMutation never touches the tree).
  tree_.SetMutationLog([this](const redfish::ResourceTree::Mutation& mutation) {
    if (tree_.recovery_adopt() && mutation.kind != redfish::ChangeKind::kDeleted) {
      std::lock_guard<std::mutex> lock(adopt_mu_);
      adopted_uris_.insert(mutation.uri);
    }
    store_->LogMutation(mutation);
  });

  // Event durability: every published event record and every delivery-
  // cursor advance is journaled. The sinks run under the event-service or
  // delivery-engine lock respectively and only append to the store (lock
  // order service -> engine -> store; LogEvent/LogEventCursor never call
  // back out).
  events_.set_event_journal([this](std::uint64_t sequence, const json::Json& record) {
    store_->LogEvent(sequence, record);
  });
  events_.set_cursor_journal([this](const std::string& uri, std::uint64_t sequence) {
    store_->LogEventCursor(uri, sequence);
  });

  // Baseline: fold the recovered (or freshly bootstrapped) tree and any
  // surviving journal history into one snapshot + fresh generation.
  OFMF_RETURN_IF_ERROR(CompactStore());
  return recovered.report;
}

Result<ReconcileReport> OfmfService::ReconcileWithAgents() {
  if (store_ == nullptr) return Status::FailedPrecondition("durability is not enabled");
  ReconcileReport report;

  // Resources in a re-registered agent's fabric that the agent did not
  // re-publish no longer exist on the hardware: mark them Absent (keep the
  // document — a client holding the URI should see *why* it is dead, and an
  // agent that reports it again later re-adopts it in place). Fabrics whose
  // agent has not come back are left untouched, exactly like a degraded
  // fabric: served stale.
  // The pass only makes sense after an actual recovery: recovery_adopt is
  // what routed agent re-publications into adopted_uris_. On a fresh boot it
  // was never set, adopted_uris_ is empty, and marking would declare the
  // agent's brand-new inventory dead.
  if (tree_.recovery_adopt()) {
    const json::Json absent =
        json::Json::Obj({{"Status", json::Json::Obj({{"State", "Absent"}})}});
    for (const auto& [fabric_id, agent] : agents_by_fabric_) {
      for (const std::string& uri : tree_.UrisUnder(FabricUri(fabric_id))) {
        {
          std::lock_guard<std::mutex> lock(adopt_mu_);
          if (adopted_uris_.count(uri) != 0) continue;
        }
        const Result<json::Json> doc = tree_.GetRaw(uri);
        if (!doc.ok() || !doc->is_object() || !doc->as_object().Contains("Status")) {
          continue;  // collections and the like carry no Status to mark
        }
        if (doc->at("Status").GetString("State") == "Absent") continue;
        if (tree_.Patch(uri, absent).ok()) ++report.resources_marked_absent;
      }
    }
  }

  OFMF_ASSIGN_OR_RETURN(CompositionService::CompositionRecovery recovered,
                        composition_.RecoverConsistency());
  report.systems_adopted = recovered.systems_adopted;
  report.systems_rolled_back = recovered.systems_rolled_back;
  report.claims_released = recovered.claims_released;

  tree_.set_recovery_adopt(false);
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    adopted_uris_.clear();
  }
  // The reconciled tree is the new baseline; snapshot it so the next restart
  // replays reconciliation's outcome, not the pre-crash limbo.
  OFMF_RETURN_IF_ERROR(CompactStore());
  return report;
}

Status OfmfService::FlushStore() {
  if (store_ == nullptr) return Status::Ok();
  return store_->Flush();
}

Status OfmfService::CompactStore() {
  if (store_ == nullptr) return Status::FailedPrecondition("durability is not enabled");
  std::vector<store::DurableSession> sessions;
  for (const SessionInfo& session : sessions_.ExportSessions()) {
    sessions.push_back({session.id, session.user, session.token});
  }
  return store_->Compact([this] { return tree_.ExportState(); }, sessions,
                         events_.ExportDurableEventState());
}

std::size_t OfmfService::ProcessPendingWork() {
  std::size_t ran = 0;
  while (!pending_work_.empty()) {
    std::function<void()> work = std::move(pending_work_.front());
    pending_work_.pop_front();
    work();
    ++ran;
  }
  return ran;
}

http::Response OfmfService::Handle(const http::Request& request) {
  // Label every span this request records with the shard's identity, so an
  // assembled cross-process trace attributes each fragment to its node even
  // when several shards share one process (tests, benches).
  trace::ScopedOrigin origin(shard_id_.empty() ? std::string_view("ofmf")
                                               : std::string_view(shard_id_));
  // Adopt the wire trace identity (InProcess callers skip tcp.serve, so this
  // is their entry point too; under TCP the ambient tcp.serve span wins and
  // http.handle nests beneath it). Sampling 0 means tracing is off for this
  // node, so the header scan is skipped — that keeps the idle hot path to
  // one relaxed load.
  trace::TraceContext remote;
  if (trace::TraceRecorder::instance().enabled()) {
    remote.trace_id =
        trace::HexToId(request.headers.GetOr(trace::kTraceIdHeader, ""));
    if (remote.trace_id != 0) {
      remote.span_id =
          trace::HexToId(request.headers.GetOr(trace::kSpanIdHeader, ""));
    }
  }
  trace::Span span("http.handle", remote);
  if (span.active()) {
    span.Note(std::string(http::to_string(request.method)) + " " + request.path);
  }
  http::Response response;
  {
    metrics::ScopedTimer timer(metrics::Registry::instance().enabled()
                                   ? EndpointHistogram(request.method, request.path)
                                   : nullptr);
    // Per-tenant latency: only authenticated traffic carries a tenant, so
    // the token-less hot path (benches, bootstrap probes) pays nothing.
    const std::string& token = request.headers.GetOr("X-Auth-Token", "");
    if (metrics::Registry::instance().enabled() && !token.empty()) {
      const std::uint64_t start_ns = metrics::FastNowNs();
      response = HandleInner(request);
      const std::string tenant = sessions_.TenantOfToken(token);
      metrics::Registry::instance()
          .histogram("http.tenant." + (tenant.empty() ? "default" : tenant) +
                     ".latency.ns")
          .Record(metrics::FastNowNs() - start_ns);
    } else {
      response = HandleInner(request);
    }
  }
  if (span.active()) {
    // Echo the trace id so a client can quote it when reporting a slow call.
    response.headers.Set(trace::kTraceIdHeader, trace::IdToHex(span.context().trace_id));
    if (response.status >= 500) {
      span.Note("HTTP " + std::to_string(response.status));
      span.SetError();  // error trees are always retained for TraceDump
    }
  }
  // Every kReportRefreshInterval-th request a thread handles republishes the
  // service-internal MetricReports, so passive ETag pollers see fresh data
  // without a background thread. The stride is per thread: no shared counter
  // on the hot path.
  thread_local std::uint64_t handled = 0;
  if (metrics::Registry::instance().enabled() &&
      (++handled & (kReportRefreshInterval - 1)) == 0) {
    telemetry_.RefreshAll();
  }
  return response;
}

http::Response OfmfService::HandleInner(const http::Request& request) {
  // Graceful drain: once shutdown has begun, mutations are refused with 503
  // + Retry-After so a retrying client fails over instead of racing the
  // store flush. Reads keep working — monitoring may scrape to the end.
  if (draining_.load(std::memory_order_relaxed) &&
      request.method != http::Method::kGet && request.method != http::Method::kHead) {
    http::Response refused = redfish::ErrorResponse(
        503, "Base.1.0.ServiceShuttingDown", "service is draining for shutdown");
    refused.headers.Set("Retry-After", "5");
    return refused;
  }
  // Auth runs first: the replay cache below must never answer an
  // unauthenticated request with another principal's cached response.
  {
    trace::Span auth_span("auth");
    if (std::optional<http::Response> denied = Authenticate(request)) return *denied;
  }

  // Idempotency dedupe: a retried POST carrying the same X-Request-Id as an
  // earlier *successful* attempt gets that attempt's response replayed
  // instead of re-executing (the first response was lost on the wire, not
  // unproduced). Failures are never cached, so a genuine retry re-executes.
  // The cache key is scoped by the authenticated token so one session can
  // never replay another's responses, and entries remember (path, body hash)
  // so a colliding id with a different request is rejected, not replayed.
  const std::string request_id = request.method == http::Method::kPost
                                     ? request.headers.GetOr("X-Request-Id", "")
                                     : "";
  const std::string replay_key =
      request_id.empty()
          ? std::string()
          : request.headers.GetOr("X-Auth-Token", "") + "\n" + request_id;
  const std::size_t body_hash =
      request_id.empty() ? 0 : std::hash<std::string_view>{}(request.body.view());
  if (!replay_key.empty()) {
    std::lock_guard<std::mutex> lock(replay_mu_);
    auto it = replayed_posts_.find(replay_key);
    if (it != replayed_posts_.end()) {
      if (it->second.path != request.path || it->second.body_hash != body_hash) {
        return redfish::ErrorResponse(
            400, "Base.1.0.ActionParameterValueConflict",
            "X-Request-Id '" + request_id +
                "' was already used for a different request");
      }
      ++replay_hits_;
      return it->second.response;
    }
  }
  http::Response response = Dispatch(request);
  // Durability upkeep rides the write path only: reads stay on the PR 1
  // fast lane (shared-lock tree + response cache) and never touch the store.
  if (store_ != nullptr && request.method != http::Method::kGet &&
      request.method != http::Method::kHead && store_->compaction_due()) {
    (void)CompactStore();
  }
  if (!replay_key.empty() && response.status >= 200 && response.status < 300) {
    std::lock_guard<std::mutex> lock(replay_mu_);
    if (replayed_posts_
            .emplace(replay_key, ReplayEntry{request.path, body_hash, response})
            .second) {
      replay_order_.push_back(replay_key);
      while (replay_order_.size() > kMaxReplayEntries) {
        replayed_posts_.erase(replay_order_.front());
        replay_order_.pop_front();
      }
    }
  }
  return response;
}

http::Response OfmfService::Dispatch(const http::Request& request) {
  const std::string path = http::NormalizePath(request.path);
  // TraceDump convenience: ?trace=<id> folds into the action body (action
  // handlers only see the body). An explicit body wins over the query.
  if (request.method == http::Method::kPost && request.body.view().empty()) {
    const auto trace_param = request.query.find("trace");
    if (trace_param != request.query.end() &&
        strings::EndsWith(path, "/Actions/OfmfService.TraceDump")) {
      const http::Request rewritten = http::MakeJsonRequest(
          http::Method::kPost, request.path,
          json::Json::Obj({{"TraceId", trace_param->second}}));
      return rest_.Handle(rewritten);
    }
  }
  // Reading a service-internal MetricReport first republishes it from live
  // state. Quiet: an unchanged report keeps its ETag, and reading a report
  // moves no histogram (the MetricReports subtree is excluded from the
  // per-endpoint timers), so back-to-back scrapes with no traffic in between
  // make the second one a 304.
  if (request.method == http::Method::kGet || request.method == http::Method::kHead) {
    telemetry_.Refresh(path);
  }

  // Server-Sent-Events streaming subscription: the reactor's first
  // long-lived, non-request/response connection type. The response carries
  // an open hook instead of a body; the reactor writes the head, then runs
  // the hook on its loop thread, which hands the StreamWriter to the
  // EventService. Events flow as SSE frames through the scatter-gather
  // outbox from then on. Transports without a streamable connection (the
  // in-process client) just see the head. Optional ?EventTypes=a,b filters.
  if (request.method == http::Method::kGet &&
      path == kEventServiceSse) {
    std::vector<std::string> event_types;
    const auto filter = request.query.find("EventTypes");
    if (filter != request.query.end()) {
      for (const std::string& type : strings::Split(filter->second, ',')) {
        if (!type.empty()) event_types.push_back(type);
      }
    }
    http::Response response;
    response.status = 200;
    response.headers.Set("Content-Type", "text/event-stream");
    response.headers.Set("Cache-Control", "no-cache");
    response.set_stream([this, event_types](http::StreamWriter writer) {
      (void)events_.AttachStream(std::move(writer), event_types);
    });
    return response;
  }

  // QoS-gated composition: the requesting tenant's QoS class bounds how
  // congested the composed system's fabric paths may be
  // (CompositionService::UtilizationLimitFor). An unsatisfiable Compose is
  // never silently placed: async-preferring clients get it queued as a Task
  // that re-evaluates the gate when it runs (congestion may have drained by
  // then); synchronous clients get an explicit 503 + Retry-After.
  if (request.method == http::Method::kPost &&
      path == kSystems) {
    Result<json::Json> body = request.JsonBody();
    const json::Json* blocks =
        body.ok() ? json::ResolvePointerRef(*body, "/Links/ResourceBlocks") : nullptr;
    std::vector<std::string> block_uris;
    if (blocks != nullptr && blocks->is_array()) {
      for (const json::Json& entry : blocks->as_array()) {
        const std::string uri = odata::IdOf(entry);
        if (!uri.empty()) block_uris.push_back(uri);
      }
    }
    std::string qos_class = "BestEffort";
    const std::string tenant =
        sessions_.TenantOfToken(request.headers.GetOr("X-Auth-Token", ""));
    if (!tenant.empty()) {
      Result<TenantInfo> info = sessions_.GetTenant(tenant);
      if (info.ok()) qos_class = info->qos_class;
    }
    // Unknown blocks fall through: the composition factory reports NotFound
    // with its usual shape.
    Result<CompositionService::QosPlacementCheck> check =
        block_uris.empty() ? CompositionService::QosPlacementCheck{}
                           : composition_.EvaluateQosPlacement(block_uris, qos_class);
    if (check.ok() && !check->satisfied) {
      const bool wants_async =
          request.headers.GetOr("Prefer", "").find("respond-async") != std::string::npos;
      if (!wants_async) {
        http::Response refused = redfish::ErrorResponse(
            503, "Base.1.0.InsufficientResources",
            "composition deferred: " + check->reason);
        refused.headers.Set("Retry-After", "5");
        return refused;
      }
      Result<std::string> task_uri = tasks_.CreateTask(
          "compose " + body->GetString("Name", "system") + " (awaiting QoS headroom)");
      if (!task_uri.ok()) return redfish::ErrorResponse(task_uri.status());
      (void)tasks_.SetState(*task_uri, TaskState::kRunning);
      const json::Json captured_body = *body;
      const std::string captured_task = *task_uri;
      const std::vector<std::string> captured_blocks = block_uris;
      const std::string captured_class = qos_class;
      pending_work_.push_back([this, captured_body, captured_task, captured_blocks,
                               captured_class] {
        Result<CompositionService::QosPlacementCheck> recheck =
            composition_.EvaluateQosPlacement(captured_blocks, captured_class);
        if (!recheck.ok() || !recheck->satisfied) {
          (void)tasks_.SetState(
              captured_task, TaskState::kException,
              recheck.ok() ? "QoS still unsatisfiable: " + recheck->reason
                           : recheck.status().message());
          return;
        }
        http::Request inner =
            http::MakeJsonRequest(http::Method::kPost, kSystems, captured_body);
        const http::Response response = rest_.Handle(inner);
        if (response.status == 201) {
          (void)tasks_.SetState(captured_task, TaskState::kCompleted,
                                "composed " + response.headers.GetOr("Location", ""));
        } else {
          (void)tasks_.SetState(captured_task, TaskState::kException,
                                "composition failed with HTTP " +
                                    std::to_string(response.status));
        }
      });
      http::Response accepted = http::MakeJsonResponse(202, *tree_.Get(*task_uri));
      accepted.headers.Set("Location", *task_uri);
      return accepted;
    }
  }

  // Asynchronous composition: Redfish's "Prefer: respond-async". The POST
  // is validated lazily by the deferred composition; the client gets a Task
  // monitor immediately (202) and polls it.
  if (request.method == http::Method::kPost &&
      path == kSystems &&
      request.headers.GetOr("Prefer", "").find("respond-async") != std::string::npos) {
    Result<json::Json> body = request.JsonBody();
    if (!body.ok()) return redfish::ErrorResponse(body.status());
    Result<std::string> task_uri =
        tasks_.CreateTask("compose " + body->GetString("Name", "system"));
    if (!task_uri.ok()) return redfish::ErrorResponse(task_uri.status());
    (void)tasks_.SetState(*task_uri, TaskState::kRunning);
    const json::Json captured_body = *body;
    const std::string captured_task = *task_uri;
    pending_work_.push_back([this, captured_body, captured_task] {
      http::Request inner = http::MakeJsonRequest(http::Method::kPost, kSystems,
                                                  captured_body);
      const http::Response response = rest_.Handle(inner);
      if (response.status == 201) {
        const std::string system_uri = response.headers.GetOr("Location", "");
        (void)tree_.Patch(
            captured_task,
            json::Json::Obj({{"Oem", json::Json::Obj({{"Ofmf",
                                                       json::Json::Obj(
                                                           {{"SystemUri",
                                                             system_uri}})}})}}));
        (void)tasks_.SetState(captured_task, TaskState::kCompleted,
                              "composed " + system_uri);
      } else {
        (void)tasks_.SetState(captured_task, TaskState::kException,
                              "composition failed with HTTP " +
                                  std::to_string(response.status));
      }
    });
    http::Response accepted = http::MakeJsonResponse(202, *tree_.Get(*task_uri));
    accepted.headers.Set("Location", *task_uri);
    return accepted;
  }

  // Session creation: must run before generic dispatch so the response can
  // carry the X-Auth-Token header.
  if (request.method == http::Method::kPost &&
      path == kSessions) {
    Result<json::Json> body = request.JsonBody();
    if (!body.ok()) return redfish::ErrorResponse(body.status());
    Result<SessionInfo> session =
        sessions_.CreateSession(body->GetString("UserName"), body->GetString("Password"));
    if (!session.ok()) return redfish::ErrorResponse(session.status());
    if (store_ != nullptr) {
      // The Session resource is journaled via the tree; the token is a
      // secret the tree never carries, so it gets its own journal record.
      store_->LogSession({session->id, session->user, session->token});
    }
    http::Response response = http::MakeJsonResponse(201, *tree_.Get(session->uri));
    response.headers.Set("Location", session->uri);
    response.headers.Set("X-Auth-Token", session->token);
    return response;
  }
  return rest_.Handle(request);
}

}  // namespace ofmf::core
