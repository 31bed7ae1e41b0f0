#include "federation/router.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <iterator>
#include <string_view>
#include <thread>

#include <set>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "http/uri.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "json/serialize.hpp"
#include "odata/annotations.hpp"
#include "ofmf/uris.hpp"
#include "redfish/errors.hpp"

namespace ofmf::federation {
namespace {

using core::kFabrics;
using core::kResourceBlocks;
using core::kServiceRoot;
using core::kSystems;

/// Collections whose members are spread across shards and whose GETs are
/// served by scatter-gather. Everything else forwards to a single shard.
const char* const kAggregatedCollections[] = {
    core::kFabrics,         core::kSystems,         core::kChassis,
    core::kStorageServices, core::kResourceBlocks,
};

bool IsAggregatedCollection(const std::string& path) {
  for (const char* c : kAggregatedCollections) {
    if (path == c) return true;
  }
  return false;
}

/// The aggregated collection `path` is a member of, or empty. Longest match
/// first so /CompositionService/ResourceBlocks/x does not match a shorter
/// prefix.
std::string CollectionOf(const std::string& path) {
  std::string best;
  for (const char* c : kAggregatedCollections) {
    const std::string prefix = std::string(c) + "/";
    if (strings::StartsWith(path, prefix) && std::string(c).size() > best.size()) {
      best = c;
    }
  }
  return best;
}

std::string BuildTarget(const std::string& path,
                        const std::map<std::string, std::string>& query) {
  if (query.empty()) return path;
  std::string target = path;
  char sep = '?';
  for (const auto& [key, value] : query) {
    target += sep;
    sep = '&';
    target += key;  // OData option names ($top, $filter) are URI-safe as-is
    target += '=';
    target += http::PercentEncode(value);
  }
  return target;
}

/// Parses a non-negative decimal paging value; nullopt when it is empty, has
/// a non-digit, or does not fit a long long.
std::optional<long long> ParsePagingValue(std::string_view text) {
  if (!strings::IsDigits(text)) return std::nullopt;
  long long value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) return std::nullopt;
  return value;
}

/// Parses a "$fedskip" continuation token: "<shard-id>:<per-shard-offset>".
std::optional<std::pair<std::string, long long>> ParseFedSkip(const std::string& value) {
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const auto offset = ParsePagingValue(std::string_view(value).substr(colon + 1));
  if (!offset) return std::nullopt;
  return std::make_pair(value.substr(0, colon), *offset);
}

Result<json::Json> ParseCollectionDoc(const http::Response& response) {
  if (!response.ok()) {
    return Status::Unavailable("shard answered HTTP " + std::to_string(response.status));
  }
  auto doc = json::Parse(response.body.view());
  if (!doc.ok() || !doc.value().is_object()) {
    return Status::Internal("shard returned malformed collection body");
  }
  return doc;
}

long long CountOf(const json::Json& doc) {
  const json::Json& members = doc.at("Members");
  const long long fallback =
      members.is_array() ? static_cast<long long>(members.as_array().size()) : 0;
  return doc.GetInt("Members@odata.count", fallback);
}

}  // namespace

FederationRouter::FederationRouter(std::shared_ptr<DirectoryClient> directory,
                                   RouterOptions options)
    : directory_(std::move(directory)), options_(options) {}

RouterStats FederationRouter::stats() const {
  RouterStats stats;
  stats.forwarded = forwarded_.load(std::memory_order_relaxed);
  stats.aggregations = aggregations_.load(std::memory_order_relaxed);
  stats.degraded_aggregations = degraded_.load(std::memory_order_relaxed);
  stats.members_omitted = omitted_members_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.cross_shard_composes = composes_.load(std::memory_order_relaxed);
  stats.compose_rollbacks = rollbacks_.load(std::memory_order_relaxed);
  return stats;
}

Result<RoutingTable> FederationRouter::TableNow() {
  auto table = directory_->Table();
  if (!table.ok()) return table.status();
  if (table.value().shards.empty()) {
    return Status::Unavailable("no shards registered with the directory");
  }
  return table;
}

HashRing FederationRouter::RingFor(const RoutingTable& table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!have_ring_ || ring_epoch_ != table.epoch) {
    ring_ = HashRing(table);
    ring_epoch_ = table.epoch;
    have_ring_ = true;
  }
  return ring_;
}

std::shared_ptr<http::TcpClient> FederationRouter::ClientFor(const ShardInfo& shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(shard.id);
  if (it != clients_.end() && client_ports_[shard.id] == shard.port) {
    return it->second;
  }
  auto client =
      std::make_shared<http::TcpClient>(shard.port, options_.downstream_timeout_ms);
  clients_[shard.id] = client;
  client_ports_[shard.id] = shard.port;
  return client;
}

Result<http::Response> FederationRouter::SendToShard(const ShardInfo& shard,
                                                     const http::Request& request) {
  // Stamp the ambient trace identity on every outbound attempt (each caller
  // span — claim, forward, fetch leg — is the parent the shard adopts). The
  // request is only copied when a trace is actually active.
  const trace::TraceContext ctx = trace::Current();
  http::Request traced;
  const http::Request* to_send = &request;
  if (ctx.active()) {
    traced = request;
    traced.headers.Set(trace::kTraceIdHeader, trace::IdToHex(ctx.trace_id));
    traced.headers.Set(trace::kSpanIdHeader, trace::IdToHex(ctx.span_id));
    to_send = &traced;
  }
  std::shared_ptr<FaultInjector> faults;
  {
    std::lock_guard<std::mutex> lock(mu_);
    faults = faults_;
  }
  if (faults) {
    const FaultDecision decision = faults->Evaluate("federation.shard." + shard.id);
    switch (decision.kind) {
      case FaultKind::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(decision.delay_ms));
        break;
      case FaultKind::kDropConnection:
      case FaultKind::kCrash:
        return Status::Unavailable("shard " + shard.id + " unreachable (injected)");
      case FaultKind::kErrorStatus:
        return http::MakeJsonResponse(
            decision.http_status,
            redfish::MakeErrorBody("Base.1.0.GeneralError", "injected shard error"));
      case FaultKind::kDropResponse: {
        auto ignored = ClientFor(shard)->Send(*to_send);
        (void)ignored;
        return Status::Unavailable("shard " + shard.id + " response lost (injected)");
      }
      default:
        break;
    }
  }
  return ClientFor(shard)->Send(*to_send);
}

http::Response FederationRouter::ForwardTo(const ShardInfo& shard,
                                           const http::Request& request) {
  auto resp = SendToShard(shard, request);
  if (!resp.ok()) {
    return redfish::ErrorResponse(Status::Unavailable(
        "shard " + shard.id + " unavailable: " + resp.status().message()));
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  return std::move(resp.value());
}

const ShardInfo* FederationRouter::DefaultShard(const RoutingTable& table,
                                                const HashRing& ring) {
  const auto owner = ring.OwnerOf(kRootKey);
  if (owner) {
    const ShardInfo* shard = table.Find(*owner);
    if (shard != nullptr && shard->alive) return shard;
  }
  for (const auto& shard : table.shards) {
    if (shard.alive) return &shard;
  }
  return nullptr;
}

http::Response FederationRouter::Route(const http::Request& request) {
  // Every span this request records — here and on worker threads that
  // re-install it — is attributed to the router node.
  trace::ScopedOrigin origin("router");
  // Adopt the wire trace identity or mint one, exactly like a shard's
  // http.handle entry point; sampling 0 skips even the header scan.
  trace::TraceContext remote;
  if (trace::TraceRecorder::instance().enabled()) {
    remote.trace_id =
        trace::HexToId(request.headers.GetOr(trace::kTraceIdHeader, ""));
    if (remote.trace_id != 0) {
      remote.span_id =
          trace::HexToId(request.headers.GetOr(trace::kSpanIdHeader, ""));
    }
  }
  trace::Span span("router.route", remote);
  if (span.active()) {
    span.Note(std::string(http::to_string(request.method)) + " " + request.path);
  }
  const bool watch_slow = span.active() && options_.slow_trace_ms > 0;
  const std::uint64_t start_ns = watch_slow ? trace::MonotonicNowNs() : 0;
  http::Response response = RouteInner(request);
  if (span.active()) {
    const std::uint64_t trace_id = span.context().trace_id;
    response.headers.Set(trace::kTraceIdHeader, trace::IdToHex(trace_id));
    if (response.status >= 500) {
      span.Note("HTTP " + std::to_string(response.status));
      span.SetError();
    }
    span.End();  // record now so the assembled dump below sees this span
    if (watch_slow) {
      const std::uint64_t elapsed_ns = trace::MonotonicNowNs() - start_ns;
      if (elapsed_ns >=
          static_cast<std::uint64_t>(options_.slow_trace_ms) * 1000000ull) {
        auto table = TableNow();
        const json::Json assembled =
            table.ok() ? AssembleTrace(trace_id, table.value())
                       : AssembleTrace(trace_id, RoutingTable{});
        OFMF_WARN << "router: slow federated request ("
                  << elapsed_ns / 1000000 << " ms) trace "
                  << trace::IdToHex(trace_id) << "\n"
                  << assembled.GetString("Tree");
      }
    }
  }
  return response;
}

http::Response FederationRouter::RouteInner(const http::Request& request) {
  auto table_result = TableNow();
  if (!table_result.ok()) {
    return redfish::ErrorResponse(Status::Unavailable(
        "federation directory unavailable: " + table_result.status().message()));
  }
  const RoutingTable& table = table_result.value();
  const HashRing ring = RingFor(table);
  const std::string path = http::NormalizePath(request.path);

  // Fleet observability (merged telemetry, assembled traces) is served by
  // the router itself, never forwarded.
  if (auto intercepted = TelemetryIntercept(request, table, path)) {
    return std::move(*intercepted);
  }

  // Composition is the one cross-shard mutation: intercept it before
  // single-shard routing.
  if (request.method == http::Method::kPost && path == kSystems) {
    return ComposeRoute(request, table);
  }
  if (request.method == http::Method::kDelete &&
      strings::StartsWith(path, std::string(kSystems) + "/")) {
    return DecomposeRoute(request, table);
  }

  // Fabric-pinned paths: the consistent hash names the owner directly.
  if (const auto key = ShardKeyForPath(path)) {
    const auto owner = ring.OwnerOf(*key);
    const ShardInfo* shard = owner ? table.Find(*owner) : nullptr;
    if (shard == nullptr) {
      return redfish::ErrorResponse(Status::Unavailable("no shard owns " + *key));
    }
    if (!shard->alive) {
      return redfish::ErrorResponse(Status::Unavailable(
          "shard " + shard->id + " owning " + *key + " is down"));
    }
    return ForwardTo(*shard, request);
  }

  // Whole aggregated collections: scatter-gather (GET/HEAD only; collection
  // POSTs other than compose go to the default shard below).
  if ((request.method == http::Method::kGet || request.method == http::Method::kHead) &&
      IsAggregatedCollection(path)) {
    return AggregateCollection(request, table);
  }

  // A member of an aggregated collection: owner discovered by probing.
  if (!CollectionOf(path).empty()) {
    auto shard = ResolveResourceShard(path, table);
    if (!shard.ok()) return redfish::ErrorResponse(shard.status());
    http::Response response = ForwardTo(shard.value(), request);
    if (response.status == 404) {
      // Stale location (resource deleted or moved): forget it.
      std::lock_guard<std::mutex> lock(mu_);
      locations_.erase(path);
    }
    return response;
  }

  // Everything else (service root, service docs, sessions, subscriptions,
  // telemetry) lives on the deterministic default shard.
  const ShardInfo* shard = DefaultShard(table, ring);
  if (shard == nullptr) {
    return redfish::ErrorResponse(Status::Unavailable("no alive shards"));
  }
  http::Response response = ForwardTo(*shard, request);
  if (path == kServiceRoot && request.method == http::Method::kGet && response.ok()) {
    // Annotate the root with the federation view so clients can see the
    // deployment shape without talking to the directory.
    auto doc = json::Parse(response.body.view());
    if (doc.ok() && doc.value().is_object()) {
      json::Json& oem = doc.value()["Oem"];
      if (!oem.is_object()) oem = json::Json::MakeObject();
      json::Json& ofmf = oem["Ofmf"];
      if (!ofmf.is_object()) ofmf = json::Json::MakeObject();
      ofmf.as_object().Set(
          "Federation",
          json::Json::Obj({{"Epoch", static_cast<long long>(table.epoch)},
                           {"Shards", static_cast<long long>(table.shards.size())},
                           {"AliveShards", static_cast<long long>(table.AliveCount())}}));
      response.headers.Remove("ETag");  // body diverges from the shard's ETag
      response = http::MakeJsonResponse(response.status, doc.value());
    }
  }
  return response;
}

Result<long long> FederationRouter::FetchCount(
    const ShardInfo& shard, const std::string& path,
    const std::map<std::string, std::string>& base_query) {
  std::map<std::string, std::string> query = base_query;
  query["$top"] = "0";
  auto resp = SendToShard(shard, http::MakeRequest(http::Method::kGet,
                                                   BuildTarget(path, query)));
  if (!resp.ok()) return resp.status();
  auto doc = ParseCollectionDoc(resp.value());
  if (!doc.ok()) return doc.status();
  const long long count = CountOf(doc.value());
  CacheCount(path, shard.id, count);
  return count;
}

http::Response FederationRouter::AggregateCollection(const http::Request& request,
                                                     const RoutingTable& table) {
  aggregations_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = http::NormalizePath(request.path);
  // One aggregate span parents every scatter leg; its context is captured by
  // value because ambient trace state does not cross std::thread.
  trace::Span agg_span("router.aggregate");
  if (agg_span.active()) agg_span.Note(path);
  const trace::TraceContext agg_ctx = agg_span.context();

  // Paging options. $fedskip is the router's own stable continuation token
  // (shard id + per-shard offset); a raw global $skip is translated on the
  // fly using each shard's live count.
  std::optional<long long> top;
  long long global_skip = 0;
  std::optional<std::pair<std::string, long long>> fedskip;
  std::map<std::string, std::string> base_query = request.query;
  if (auto it = request.query.find("$top"); it != request.query.end()) {
    top = ParsePagingValue(it->second);
    if (!top) {
      return redfish::ErrorResponse(Status::InvalidArgument("$top must be a non-negative integer"));
    }
  }
  if (auto it = request.query.find("$skip"); it != request.query.end()) {
    const auto skip = ParsePagingValue(it->second);
    if (!skip) {
      return redfish::ErrorResponse(Status::InvalidArgument("$skip must be a non-negative integer"));
    }
    global_skip = *skip;
  }
  if (auto it = request.query.find("$fedskip"); it != request.query.end()) {
    fedskip = ParseFedSkip(it->second);
    if (!fedskip) {
      return redfish::ErrorResponse(
          Status::InvalidArgument("$fedskip must be <shard-id>:<offset>"));
    }
    global_skip = 0;  // the token already encodes the position
  }
  base_query.erase("$top");
  base_query.erase("$skip");
  base_query.erase("$fedskip");
  const bool paged = top.has_value() || global_skip > 0 || fedskip.has_value();

  std::vector<ShardPage> pages(table.shards.size());
  json::Array members;
  long long total = 0;
  long long omitted_members = 0;
  json::Array omitted_shards;
  std::optional<std::pair<std::string, long long>> resume;

  if (!paged) {
    // Plain GET: fan out to every shard concurrently and concatenate.
    std::vector<std::thread> threads;
    threads.reserve(table.shards.size());
    for (std::size_t i = 0; i < table.shards.size(); ++i) {
      threads.emplace_back([this, &table, &pages, &base_query, &path, i, agg_ctx] {
        const ShardInfo& shard = table.shards[i];
        ShardPage& page = pages[i];
        page.shard_id = shard.id;
        if (!shard.alive) return;
        // Sibling span per leg, adopted from the captured aggregate context
        // (worker threads carry no ambient context of their own — the guard
        // keeps an untraced request from minting a trace per leg).
        trace::ScopedOrigin origin("router");
        std::optional<trace::Span> leg;
        if (agg_ctx.active()) {
          leg.emplace("router.fetch", agg_ctx);
          leg->Note(shard.id);
        }
        auto resp = SendToShard(
            shard, http::MakeRequest(http::Method::kGet, BuildTarget(path, base_query)));
        if (!resp.ok()) {
          if (leg) leg->SetError();
          return;
        }
        auto doc = ParseCollectionDoc(resp.value());
        if (!doc.ok()) {
          if (leg) leg->SetError();
          return;
        }
        page.ok = true;
        page.have_doc = true;
        page.count = CountOf(doc.value());
        page.doc = std::move(doc.value());
      });
    }
    for (auto& t : threads) t.join();
    for (auto& page : pages) {
      if (page.ok) CacheCount(path, page.shard_id, page.count);
    }
  } else {
    // Paged GET: deterministic sequential walk in sorted-shard-id order, so
    // the continuation token stays stable while shard sizes change.
    long long remaining_skip = global_skip;
    bool started = !fedskip.has_value();
    for (std::size_t i = 0; i < table.shards.size(); ++i) {
      const ShardInfo& shard = table.shards[i];
      ShardPage& page = pages[i];
      page.shard_id = shard.id;
      long long per_shard_skip = 0;
      if (!started) {
        if (fedskip && shard.id == fedskip->first) {
          started = true;
          per_shard_skip = fedskip->second;
        } else {
          // Before the continuation point: already consumed; count only.
          if (shard.alive) {
            auto count = FetchCount(shard, path, base_query);
            if (count.ok()) {
              page.ok = true;
              page.count = count.value();
              continue;
            }
          }
          continue;  // dead/unreachable: merged below as omitted
        }
      }
      const bool page_full = top.has_value() && top.value() == 0;
      if (!shard.alive) continue;
      if (page_full) {
        auto count = FetchCount(shard, path, base_query);
        if (!count.ok()) continue;
        page.ok = true;
        page.count = count.value();
        const bool at_token = fedskip && shard.id == fedskip->first;
        const long long pos = at_token ? std::min(fedskip->second, page.count) : 0;
        if (page.count > pos && !resume) resume = {shard.id, pos};
        continue;
      }
      std::map<std::string, std::string> query = base_query;
      const long long eff_skip = per_shard_skip + remaining_skip;
      if (eff_skip > 0) query["$skip"] = std::to_string(eff_skip);
      if (top) query["$top"] = std::to_string(top.value());
      auto resp = SendToShard(
          shard, http::MakeRequest(http::Method::kGet, BuildTarget(path, query)));
      if (!resp.ok()) continue;
      auto doc = ParseCollectionDoc(resp.value());
      if (!doc.ok()) continue;
      page.ok = true;
      page.have_doc = true;
      page.count = CountOf(doc.value());
      page.doc = std::move(doc.value());
      CacheCount(path, shard.id, page.count);
      const json::Json* shard_members = json::ResolvePointerRef(page.doc, "/Members");
      const long long taken =
          shard_members != nullptr && shard_members->is_array()
              ? static_cast<long long>(shard_members->as_array().size())
              : 0;
      remaining_skip = std::max(0ll, remaining_skip - std::max(0ll, page.count - per_shard_skip));
      if (top) *top = std::max(0ll, top.value() - taken);
      const long long consumed = std::min(eff_skip, page.count) + taken;
      if (consumed < page.count && !resume) resume = {shard.id, consumed};
    }
  }

  // Merge. The envelope comes from the first full shard doc; Members are
  // concatenated in shard order; the count is the federation-wide total.
  json::Json merged;
  std::size_t ok_pages = 0;
  for (auto& page : pages) {
    if (!page.ok) {
      const auto cached = CachedCount(path, page.shard_id);
      omitted_members += cached.value_or(0);
      omitted_shards.push_back(json::Json(page.shard_id));
      continue;
    }
    ++ok_pages;
    total += page.count;
    if (!page.have_doc) continue;
    if (page.doc.is_object() && page.doc.at("Members").is_array()) {
      json::Array& page_members = page.doc["Members"].as_array();
      if (members.empty()) {
        members = std::move(page_members);
      } else {
        members.insert(members.end(), std::make_move_iterator(page_members.begin()),
                       std::make_move_iterator(page_members.end()));
      }
    }
    // The first full page becomes the envelope, moved in once its Members
    // are out; the Set below refills that member at the same position.
    if (merged.is_null()) merged = std::move(page.doc);
  }
  if (ok_pages == 0) {
    return redfish::ErrorResponse(
        Status::Unavailable("no shard reachable for " + path));
  }
  if (merged.is_null()) {
    // Every contributing shard answered count-only ($top=0 page): synthesize
    // the envelope.
    merged = json::Json::Obj({{"@odata.id", path},
                              {"Name", "Federated collection"},
                              {"Members", json::Json::MakeArray()}});
  }
  auto& obj = merged.as_object();
  obj.Set("Members", json::Json(std::move(members)));
  obj.Set("Members@odata.count", static_cast<std::int64_t>(total));
  obj.Erase("@odata.etag");      // a merged body has no single source version
  obj.Erase("@odata.nextLink");  // shard-local links are meaningless here
  if (resume) {
    std::map<std::string, std::string> next_query = base_query;
    // Preserve the client's original page size in the continuation.
    if (auto it = request.query.find("$top"); it != request.query.end()) {
      next_query["$top"] = it->second;
    }
    next_query["$fedskip"] = resume->first + ":" + std::to_string(resume->second);
    obj.Set("@odata.nextLink", BuildTarget(path, next_query));
  }
  if (!omitted_shards.empty()) {
    degraded_.fetch_add(1, std::memory_order_relaxed);
    omitted_members_.fetch_add(static_cast<std::uint64_t>(omitted_members),
                               std::memory_order_relaxed);
    metrics::Registry::instance().counter("federation.degraded_responses").Increment();
    metrics::Registry::instance()
        .counter("federation.members_omitted")
        .Increment(static_cast<std::uint64_t>(omitted_members));
    std::string omitted_ids;
    for (const json::Json& shard : omitted_shards) {
      if (!omitted_ids.empty()) omitted_ids += ", ";
      omitted_ids += shard.as_string();
    }
    OFMF_WARN << "federation: degraded aggregation of " << path
              << " omitted shard(s) " << omitted_ids << " (" << omitted_members
              << " member(s) last known there)";
    if (agg_span.active()) {
      agg_span.Note("degraded: " + omitted_ids);
      agg_span.SetError();
    }
    json::Json& oem = merged["Oem"];
    if (!oem.is_object()) oem = json::Json::MakeObject();
    json::Json& ofmf = oem["Ofmf"];
    if (!ofmf.is_object()) ofmf = json::Json::MakeObject();
    ofmf.as_object().Set("MembersOmittedCount",
                         static_cast<std::int64_t>(omitted_members));
    ofmf.as_object().Set("DegradedShards", json::Json(std::move(omitted_shards)));
  }
  return http::MakeJsonResponse(200, merged);
}

Result<ShardInfo> FederationRouter::ResolveResourceShard(const std::string& uri,
                                                         const RoutingTable& table) {
  std::string cached_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = locations_.find(uri);
    if (it != locations_.end()) cached_id = it->second;
  }
  if (!cached_id.empty()) {
    const ShardInfo* shard = table.Find(cached_id);
    if (shard != nullptr && shard->alive) return *shard;
  }
  // Probe shards in table order; the first non-404 answer owns the URI.
  bool all_reachable = true;
  for (const auto& shard : table.shards) {
    if (!shard.alive) {
      all_reachable = false;
      continue;
    }
    probes_.fetch_add(1, std::memory_order_relaxed);
    auto resp = SendToShard(shard, http::MakeRequest(http::Method::kGet, uri));
    if (!resp.ok()) {
      all_reachable = false;
      continue;
    }
    if (resp.value().status != 404) {
      CacheLocation(uri, shard.id);
      return shard;
    }
  }
  if (!all_reachable) {
    return Status::Unavailable(uri + " not found on reachable shards; " +
                               "one or more shards are down");
  }
  return Status::NotFound(uri + " not found on any shard");
}

namespace {

/// Canonicalizes a claimed block's payload before it travels in the compose
/// body: the post-claim state plus no volatile fields (@odata.etag), so a
/// claim taken fresh and a claim re-validated on retry produce byte-identical
/// compose bodies — the home shard's replay cache keys on the body hash.
json::Json NormalizeClaimedPayload(json::Json doc, const std::string& txn) {
  if (!doc.is_object()) return doc;
  doc.as_object().Erase("@odata.etag");
  (void)json::SetPointer(doc, "/CompositionStatus",
                         json::Json::Obj({{"CompositionState", "Composed"},
                                          {"NumberOfCompositions", 1}}));
  (void)json::SetPointer(doc, "/Oem/Ofmf/ClaimedBy", json::Json(txn));
  return doc;
}

}  // namespace

Result<json::Json> FederationRouter::ClaimBlockOnShard(const ShardInfo& shard,
                                                       const std::string& uri,
                                                       const std::string& txn) {
  // Every read/CAS attempt below is stamped with this span's identity, so
  // the shard-side PATCH spans hang off compose.claim in the assembled tree.
  trace::Span span("compose.claim");
  if (span.active()) span.Note(uri + " @ " + shard.id);
  for (int attempt = 0; attempt < options_.claim_attempts; ++attempt) {
    if (attempt > 0 && span.active()) {
      span.Note("attempt " + std::to_string(attempt + 1));
    }
    auto read = SendToShard(shard, http::MakeRequest(http::Method::kGet, uri));
    if (!read.ok()) return read.status();
    if (read.value().status == 404) {
      return Status::NotFound("block " + uri + " not found on shard " + shard.id);
    }
    if (!read.value().ok()) {
      return Status::Unavailable("block read failed: HTTP " +
                                 std::to_string(read.value().status));
    }
    auto doc = json::Parse(read.value().body.view());
    if (!doc.ok() || !doc.value().is_object()) {
      return Status::Internal("malformed block payload from shard " + shard.id);
    }
    const std::string state =
        doc.value().at("CompositionStatus").GetString("CompositionState");
    const std::string claimed_by =
        doc.value().at("Oem").at("Ofmf").GetString("ClaimedBy");
    if (state == "Composed" && claimed_by == txn) {
      // Lost-response retry: the claim already held.
      return NormalizeClaimedPayload(std::move(doc.value()), txn);
    }
    if (state != "Unused") {
      span.SetError();
      return Status::FailedPrecondition("block " + uri + " is " + state);
    }
    const std::string etag = read.value().headers.GetOr("ETag", "");
    http::Request claim = http::MakeJsonRequest(
        http::Method::kPatch, uri,
        json::Json::Obj(
            {{"CompositionStatus",
              json::Json::Obj({{"CompositionState", "Composed"},
                               {"NumberOfCompositions", 1}})},
             {"Oem", json::Json::Obj({{"Ofmf",
                                       json::Json::Obj({{"ClaimedBy", txn}})}})}}));
    if (!etag.empty()) claim.headers.Set("If-Match", etag);
    auto patched = SendToShard(shard, claim);
    if (!patched.ok()) return patched.status();
    if (patched.value().ok()) {
      return NormalizeClaimedPayload(std::move(doc.value()), txn);
    }
    if (patched.value().status != 412) {
      span.SetError();
      return Status::FailedPrecondition("claim of " + uri + " rejected: HTTP " +
                                        std::to_string(patched.value().status));
    }
    // 412: someone advanced the block between our read and patch; re-read.
  }
  span.SetError();
  return Status::FailedPrecondition("block " + uri + " is contended; claim lost repeatedly");
}

void FederationRouter::ReleaseClaims(
    const std::vector<std::pair<ShardInfo, std::string>>& claimed, bool is_rollback) {
  if (is_rollback && !claimed.empty()) {
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const auto& [shard, uri] : claimed) {
    // One span per release PATCH; rollbacks are errors by definition (the
    // trace that needed one is always retained for TraceDump).
    trace::Span span(is_rollback ? "compose.rollback" : "compose.release");
    if (span.active()) {
      span.Note(uri + " @ " + shard.id);
      if (is_rollback) span.SetError();
    }
    http::Request release = http::MakeJsonRequest(
        http::Method::kPatch, uri,
        json::Json::Obj(
            {{"CompositionStatus",
              json::Json::Obj({{"CompositionState", "Unused"},
                               {"NumberOfCompositions", 0}})},
             {"Oem", json::Json::Obj({{"Ofmf",
                                       json::Json::Obj({{"ClaimedBy", ""}})}})}}));
    auto resp = SendToShard(shard, release);
    if (!resp.ok() || !resp.value().ok()) {
      OFMF_WARN << "federation: failed to release claim on " << uri << " (shard "
                << shard.id << "); operator or shard recovery must reap it";
    }
  }
}

http::Response FederationRouter::ComposeRoute(const http::Request& request,
                                              const RoutingTable& table) {
  auto body = request.JsonBody();
  if (!body.ok() || !body.value().is_object()) {
    return redfish::ErrorResponse(Status::InvalidArgument("compose body must be JSON"));
  }
  const json::Json* blocks =
      json::ResolvePointerRef(body.value(), "/Links/ResourceBlocks");
  if (blocks == nullptr || !blocks->is_array() || blocks->as_array().empty()) {
    return redfish::ErrorResponse(
        Status::InvalidArgument("composition requires Links.ResourceBlocks references"));
  }
  std::vector<std::string> uris;
  for (const json::Json& entry : blocks->as_array()) {
    const std::string uri = odata::IdOf(entry);
    if (uri.empty()) {
      return redfish::ErrorResponse(
          Status::InvalidArgument("block reference missing @odata.id"));
    }
    uris.push_back(uri);
  }

  // Locate every block's shard up front.
  std::vector<ShardInfo> owners;
  owners.reserve(uris.size());
  for (const std::string& uri : uris) {
    auto shard = ResolveResourceShard(uri, table);
    if (!shard.ok()) return redfish::ErrorResponse(shard.status());
    owners.push_back(shard.value());
  }
  const ShardInfo home = owners.front();
  bool cross_shard = false;
  for (const auto& owner : owners) {
    if (owner.id != home.id) cross_shard = true;
  }
  if (!cross_shard) {
    // Single-shard composition: the shard's own transactional Compose path
    // handles claims and rollback; just forward.
    http::Response response = ForwardTo(home, request);
    const std::string location = response.headers.GetOr("Location", "");
    if (response.status == 201 && !location.empty()) CacheLocation(location, home.id);
    return response;
  }

  composes_.fetch_add(1, std::memory_order_relaxed);
  trace::Span span("router.compose");
  std::string txn = request.headers.GetOr("X-Request-Id", "");
  if (txn.empty()) {
    txn = "fedtxn-" + std::to_string(txn_counter_.fetch_add(1)) + "-" +
          std::to_string(std::chrono::steady_clock::now().time_since_epoch().count());
  }
  if (span.active()) span.Note(txn);

  // Phase 1: claim every block by wire ETag-CAS, in sorted-URI order so two
  // racing routers contend in the same order instead of deadlocking into
  // mutual partial claims.
  std::vector<std::size_t> order(uris.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return uris[a] < uris[b]; });
  std::vector<std::pair<ShardInfo, std::string>> claimed;
  std::vector<json::Json> payloads(uris.size());
  for (const std::size_t i : order) {
    auto payload = ClaimBlockOnShard(owners[i], uris[i], txn);
    if (!payload.ok()) {
      ReleaseClaims(claimed);
      return redfish::ErrorResponse(payload.status());
    }
    claimed.emplace_back(owners[i], uris[i]);
    payloads[i] = std::move(payload.value());
  }

  // Phase 2: idempotent POST to the home shard (owner of the first block).
  // Its local blocks are pre-claimed; remote blocks travel as URI + payload
  // so the system's capability summaries include them.
  json::Array local_refs;
  json::Array remote_blocks;
  for (std::size_t i = 0; i < uris.size(); ++i) {
    if (owners[i].id == home.id) {
      local_refs.push_back(odata::Ref(uris[i]));
    } else {
      remote_blocks.push_back(json::Json::Obj({{"Uri", uris[i]},
                                               {"ShardId", owners[i].id},
                                               {"Payload", payloads[i]}}));
    }
  }
  json::Json compose_body = body.value();
  auto& compose_obj = compose_body.as_object();
  json::Json links = json::Json::Obj({{"ResourceBlocks", json::Json(std::move(local_refs))}});
  compose_obj.Set("Links", std::move(links));
  json::Json& oem = compose_body["Oem"];
  if (!oem.is_object()) oem = json::Json::MakeObject();
  json::Json& ofmf = oem["Ofmf"];
  if (!ofmf.is_object()) ofmf = json::Json::MakeObject();
  ofmf.as_object().Set(
      "Federation",
      json::Json::Obj({{"PreClaimed", true},
                       {"Txn", txn},
                       {"RemoteBlocks", json::Json(std::move(remote_blocks))}}));

  http::Request compose = http::MakeJsonRequest(http::Method::kPost, kSystems, compose_body);
  compose.headers.Set("X-Request-Id", txn);
  trace::Span forward("compose.forward");
  if (forward.active()) forward.Note(home.id);
  auto composed = SendToShard(home, compose);
  if (!composed.ok() || composed.value().status >= 500) forward.SetError();
  // End before any rollback so compose.rollback spans are its siblings, not
  // its children.
  forward.End();
  if (!composed.ok() || composed.value().status >= 500) {
    // The home shard may be gone mid-POST; unwind every claim so no block
    // leaks. (A lost *response* for a system that WAS created is retried by
    // the client with the same X-Request-Id and answered from the home
    // shard's replay cache.)
    ReleaseClaims(claimed);
    const Status failure =
        composed.ok() ? Status::Unavailable("home shard " + home.id + " answered HTTP " +
                                            std::to_string(composed.value().status))
                      : Status::Unavailable("home shard " + home.id +
                                            " unavailable: " + composed.status().message());
    return redfish::ErrorResponse(failure);
  }
  if (!composed.value().ok()) {
    // 4xx from the home shard (validation, conflict): claims must not leak.
    ReleaseClaims(claimed);
    return std::move(composed.value());
  }
  const std::string location = composed.value().headers.GetOr("Location", "");
  if (!location.empty()) CacheLocation(location, home.id);
  return std::move(composed.value());
}

http::Response FederationRouter::DecomposeRoute(const http::Request& request,
                                                const RoutingTable& table) {
  const std::string path = http::NormalizePath(request.path);
  auto shard = ResolveResourceShard(path, table);
  if (!shard.ok()) {
    if (shard.status().code() == ErrorCode::kNotFound) {
      // Idempotent like the shard-local path: deleting an already-deleted
      // system converges.
      return http::MakeEmptyResponse(204);
    }
    return redfish::ErrorResponse(shard.status());
  }
  // Read the system first: a federated system lists its remote blocks in
  // Oem.Ofmf.Federation.RemoteBlocks, which the router must release after
  // the home shard frees its local ones.
  std::vector<std::pair<ShardInfo, std::string>> remote;
  auto read = SendToShard(shard.value(), http::MakeRequest(http::Method::kGet, path));
  if (read.ok() && read.value().ok()) {
    auto doc = json::Parse(read.value().body.view());
    if (doc.ok()) {
      const json::Json* remote_blocks = json::ResolvePointerRef(
          doc.value(), "/Oem/Ofmf/Federation/RemoteBlocks");
      if (remote_blocks != nullptr && remote_blocks->is_array()) {
        for (const json::Json& entry : remote_blocks->as_array()) {
          const std::string uri = entry.GetString("Uri");
          const std::string shard_id = entry.GetString("ShardId");
          const ShardInfo* owner = table.Find(shard_id);
          if (!uri.empty() && owner != nullptr) remote.emplace_back(*owner, uri);
        }
      }
    }
  }
  http::Response response = ForwardTo(shard.value(), request);
  if ((response.ok() || response.status == 404) && !remote.empty()) {
    ReleaseClaims(remote, /*is_rollback=*/false);
  }
  if (response.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    locations_.erase(path);
  }
  return response;
}

void FederationRouter::CacheLocation(const std::string& uri, const std::string& shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  locations_[uri] = shard_id;
}

void FederationRouter::CacheCount(const std::string& path, const std::string& shard_id,
                                  long long count) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[path + "|" + shard_id] = count;
}

std::optional<http::Response> FederationRouter::TelemetryIntercept(
    const http::Request& request, const RoutingTable& table, const std::string& path) {
  static const std::string kActionsPrefix = std::string(kServiceRoot) + "/Actions/";
  if (request.method == http::Method::kGet || request.method == http::Method::kHead) {
    if (path == core::kTelemetryService) {
      return http::MakeJsonResponse(200, FleetTelemetryServiceDoc());
    }
    if (path == core::kMetricReports) {
      return http::MakeJsonResponse(200, FleetMetricReportsDoc());
    }
    const std::string reports_prefix = std::string(core::kMetricReports) + "/";
    if (strings::StartsWith(path, reports_prefix)) {
      const std::string name = path.substr(reports_prefix.size());
      const auto& names = FleetReportNames();
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        return redfish::ErrorResponse(
            Status::NotFound("no fleet MetricReport named " + name));
      }
      if (name == "FleetHealth") {
        // Health needs no shard round-trips: liveness / heartbeat age /
        // self-reported stats all live in the routing table.
        FleetHealthInputs inputs;
        inputs.degraded_responses = degraded_.load(std::memory_order_relaxed);
        inputs.members_omitted = omitted_members_.load(std::memory_order_relaxed);
        return http::MakeJsonResponse(200, FleetHealthReport(table, inputs));
      }
      const FleetMetrics fleet = GatherFleetMetrics(table);
      if (name == "RequestLatency") {
        return http::MakeJsonResponse(200, FleetRequestLatencyReport(fleet));
      }
      if (name == "ResponseCache") {
        return http::MakeJsonResponse(200, FleetResponseCacheReport(fleet));
      }
      if (name == "Resilience") {
        return http::MakeJsonResponse(200, FleetResilienceReport(fleet));
      }
      return http::MakeJsonResponse(200, FleetEventDeliveryReport(fleet));
    }
    return std::nullopt;
  }
  if (request.method != http::Method::kPost) return std::nullopt;
  if (path == kActionsPrefix + "OfmfService.MetricsDump") {
    return http::MakeJsonResponse(200, GatherFleetMetrics(table).ToJson());
  }
  if (path == kActionsPrefix + "OfmfService.TraceDump") {
    // Accept the trace id as a JSON body ({"TraceId": "<hex>"}) or the
    // ?trace= query shortcut, mirroring the shard-side action.
    std::string trace_hex;
    if (!request.body.view().empty()) {
      auto body = request.JsonBody();
      if (body.ok() && body.value().is_object()) {
        trace_hex = body.value().GetString("TraceId");
      }
    }
    if (trace_hex.empty()) {
      const auto trace_param = request.query.find("trace");
      if (trace_param != request.query.end()) trace_hex = trace_param->second;
    }
    if (trace_hex.empty()) {
      // No id: merged listing of retained traces, router + every live shard.
      std::set<std::string> ids;
      for (const std::uint64_t id : trace::TraceRecorder::instance().RetainedTraceIds()) {
        ids.insert(trace::IdToHex(id));
      }
      const http::Request dump = http::MakeJsonRequest(
          http::Method::kPost, kActionsPrefix + "OfmfService.TraceDump",
          json::Json::MakeObject());
      for (const ShardInfo& shard : table.shards) {
        if (!shard.alive) continue;
        auto resp = SendToShard(shard, dump);
        if (!resp.ok() || !resp.value().ok()) continue;
        auto doc = json::Parse(resp.value().body.view());
        if (!doc.ok()) continue;
        const json::Json& retained = doc.value().at("RetainedTraces");
        if (!retained.is_array()) continue;
        for (const json::Json& id : retained.as_array()) {
          if (id.is_string()) ids.insert(id.as_string());
        }
      }
      json::Array out;
      for (const std::string& id : ids) out.push_back(json::Json(id));
      return http::MakeJsonResponse(
          200, json::Json::Obj({{"ShardId", "router"},
                                {"RetainedTraces", json::Json(std::move(out))}}));
    }
    const std::uint64_t trace_id = trace::HexToId(trace_hex);
    if (trace_id == 0) {
      return redfish::ErrorResponse(
          Status::InvalidArgument("TraceId must be 16 hex digits"));
    }
    return http::MakeJsonResponse(200, AssembleTrace(trace_id, table));
  }
  return std::nullopt;
}

FleetMetrics FederationRouter::GatherFleetMetrics(const RoutingTable& table) {
  static const std::string kDumpTarget =
      std::string(kServiceRoot) + "/Actions/OfmfService.MetricsDump";
  // Scatter the one-shot dump action to every live shard; gather into docs
  // and fold sequentially (FleetMetrics itself is not thread-safe).
  const trace::TraceContext ctx = trace::Current();
  std::vector<std::optional<json::Json>> docs(table.shards.size());
  std::vector<std::thread> threads;
  threads.reserve(table.shards.size());
  for (std::size_t i = 0; i < table.shards.size(); ++i) {
    threads.emplace_back([this, &table, &docs, i, ctx] {
      const ShardInfo& shard = table.shards[i];
      if (!shard.alive) return;
      trace::ScopedOrigin origin("router");
      std::optional<trace::Span> leg;
      if (ctx.active()) {
        leg.emplace("router.metrics_fetch", ctx);
        leg->Note(shard.id);
      }
      auto resp = SendToShard(
          shard, http::MakeRequest(http::Method::kPost, kDumpTarget));
      if (!resp.ok() || !resp.value().ok()) {
        if (leg) leg->SetError();
        return;
      }
      auto doc = json::Parse(resp.value().body.view());
      if (!doc.ok() || !doc.value().is_object()) {
        if (leg) leg->SetError();
        return;
      }
      docs[i] = std::move(doc.value());
    });
  }
  for (auto& t : threads) t.join();
  FleetMetrics fleet;
  for (std::size_t i = 0; i < table.shards.size(); ++i) {
    if (docs[i]) fleet.Absorb(table.shards[i].id, *docs[i]);
  }
  return fleet;
}

std::vector<trace::SpanRecord> FederationRouter::AssembleTraceSpans(
    std::uint64_t trace_id, const RoutingTable& table) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  std::vector<trace::SpanRecord> spans = recorder.RetainedTrace(trace_id);
  if (spans.empty()) spans = recorder.TraceSpans(trace_id);
  for (trace::SpanRecord& span : spans) {
    if (span.origin.empty()) span.origin = "router";
  }
  // Spans dedup by id: in single-process deployments (tests, benches) the
  // router and every shard share one recorder, so its fragment and theirs
  // overlap completely.
  std::set<std::uint64_t> seen;
  for (const trace::SpanRecord& span : spans) seen.insert(span.span_id);

  const http::Request dump = http::MakeJsonRequest(
      http::Method::kPost, std::string(kServiceRoot) + "/Actions/OfmfService.TraceDump",
      json::Json::Obj({{"TraceId", trace::IdToHex(trace_id)}}));
  for (const ShardInfo& shard : table.shards) {
    if (!shard.alive) continue;
    auto resp = SendToShard(shard, dump);
    if (!resp.ok() || !resp.value().ok()) continue;
    auto doc = json::Parse(resp.value().body.view());
    if (!doc.ok() || !doc.value().is_object()) continue;
    const json::Json& fragment = doc.value().at("Spans");
    if (!fragment.is_array()) continue;
    for (const json::Json& entry : fragment.as_array()) {
      if (!entry.is_object()) continue;
      trace::SpanRecord span;
      span.trace_id = trace_id;
      span.span_id = trace::HexToId(entry.GetString("SpanId"));
      span.parent_span_id = trace::HexToId(entry.GetString("ParentSpanId"));
      span.name = entry.GetString("Name");
      span.note = entry.GetString("Note");
      span.origin = entry.GetString("Origin");
      if (span.origin.empty()) span.origin = shard.id;
      span.start_ns = static_cast<std::uint64_t>(entry.GetInt("StartNs", 0));
      span.duration_ns = static_cast<std::uint64_t>(entry.GetInt("DurationNs", 0));
      span.thread_id = static_cast<std::uint32_t>(entry.GetInt("Thread", 0));
      span.error = entry.GetBool("Error", false);
      if (span.span_id == 0 || !seen.insert(span.span_id).second) continue;
      spans.push_back(std::move(span));
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return spans;
}

json::Json FederationRouter::AssembleTrace(std::uint64_t trace_id,
                                           const RoutingTable& table) {
  std::vector<trace::SpanRecord> spans = AssembleTraceSpans(trace_id, table);
  std::vector<std::string> nodes;
  for (const trace::SpanRecord& span : spans) {
    if (std::find(nodes.begin(), nodes.end(), span.origin) == nodes.end()) {
      nodes.push_back(span.origin);
    }
  }
  json::Array node_arr;
  for (const std::string& node : nodes) node_arr.push_back(json::Json(node));
  json::Array span_arr;
  for (const trace::SpanRecord& s : spans) {
    span_arr.push_back(json::Json::Obj(
        {{"SpanId", trace::IdToHex(s.span_id)},
         {"ParentSpanId", trace::IdToHex(s.parent_span_id)},
         {"Name", s.name},
         {"Note", s.note},
         {"Origin", s.origin},
         {"StartNs", static_cast<std::int64_t>(s.start_ns)},
         {"DurationNs", static_cast<std::int64_t>(s.duration_ns)},
         {"Thread", static_cast<std::int64_t>(s.thread_id)},
         {"Error", s.error}}));
  }
  return json::Json::Obj({{"TraceId", trace::IdToHex(trace_id)},
                          {"Nodes", json::Json(std::move(node_arr))},
                          {"Spans", json::Json(std::move(span_arr))},
                          {"Tree", trace::FormatTraceTree(std::move(spans))}});
}

std::optional<long long> FederationRouter::CachedCount(const std::string& path,
                                                       const std::string& shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(path + "|" + shard_id);
  if (it == counts_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ofmf::federation
