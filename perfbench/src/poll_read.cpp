// poll_read: telemetry/inventory pollers against one OFMF served the way
// `rest_server --qos` serves it (auth on, two equal-weight tenants, no rate
// cap) with four fabricsim agents publishing ~8k leaves — about twice the
// response cache. One epoll driver, two keep-alive connections (one per
// tenant, one session each): with more requests in flight than the host
// has spare cores, p50s measure the scheduler rather than the OFMF.
#include <algorithm>
#include <memory>
#include <unordered_map>

#include "agents/cxl_agent.hpp"
#include "agents/ethernet_agent.hpp"
#include "agents/ib_agent.hpp"
#include "agents/nvmeof_agent.hpp"
#include "composability/client.hpp"
#include "fabricsim/cxl.hpp"
#include "fabricsim/ethernet.hpp"
#include "fabricsim/infiniband.hpp"
#include "fabricsim/nvmeof.hpp"
#include "layers.hpp"
#include "ofmf/service.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace http = ofmf::http;
namespace fabricsim = ofmf::fabricsim;
using ofmf::json::Json;

namespace {

constexpr std::size_t kConnections = 2;
constexpr int kSetups = 5;  // ~2.5 s each
const char* const kUsers[kConnections] = {"alpha0", "beta0"};

std::string Name(const char* prefix, int width, int i) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%0*d", prefix, width, i);
  return buffer;
}

/// Everything one poll_read deployment owns, in destruction-safe order:
/// graphs before the managers that watch them, managers before the agents
/// (owned by the service) that call them, the server last.
struct PollStack {
  fabricsim::FabricGraph cxl_graph, ib_graph, eth_graph, nvme_graph;
  std::unique_ptr<fabricsim::CxlFabricManager> cxl;
  std::unique_ptr<fabricsim::IbSubnetManager> ib;
  std::unique_ptr<fabricsim::EthernetSwitchManager> eth;
  std::unique_ptr<fabricsim::NvmeofTargetManager> nvme;
  ofmf::core::OfmfService ofmf;
  SpanLog spans;
  http::TcpServer server;
  std::vector<std::string> tokens;

  ~PollStack() { server.Stop(); }

  std::string Build(bool traced) {
    if (!ofmf.Bootstrap().ok()) return "bootstrap failed";
    ofmf.sessions().set_auth_required(true);
    for (const char* tenant_id : {"alpha", "beta"}) {
      ofmf::core::TenantInfo tenant;
      tenant.id = tenant_id;
      for (const char* user : kUsers) {
        if (std::string(user).rfind(tenant_id, 0) == 0) {
          tenant.users.push_back(user);
          ofmf.sessions().AddUser(user, user);
        }
      }
      if (!ofmf.sessions().CreateTenant(tenant).ok()) return "tenant create failed";
    }

    // CXL: 1024 hosts and 64 four-LD memory devices behind one switch.
    (void)cxl_graph.AddVertex("cxl-sw0", fabricsim::VertexKind::kSwitch, 16);
    cxl = std::make_unique<fabricsim::CxlFabricManager>(cxl_graph);
    for (int i = 0; i < 1024; ++i) {
      (void)cxl_graph.AddVertex(Name("host", 4, i), fabricsim::VertexKind::kDevice, 1);
      if (!cxl->RegisterHost(Name("host", 4, i)).ok()) return "cxl host failed";
    }
    for (int i = 0; i < 64; ++i) {
      (void)cxl_graph.AddVertex(Name("mld", 2, i), fabricsim::VertexKind::kDevice, 1);
      if (!cxl->RegisterMemoryDevice(Name("mld", 2, i), 256ull << 30, 4).ok()) {
        return "cxl device failed";
      }
    }
    // InfiniBand: 2560 HCAs and one switch, swept by the subnet manager.
    (void)ib_graph.AddVertex("ib-sw0", fabricsim::VertexKind::kSwitch, 16);
    for (int i = 0; i < 2560; ++i) {
      (void)ib_graph.AddVertex(Name("ibn", 4, i), fabricsim::VertexKind::kDevice, 1);
    }
    ib = std::make_unique<fabricsim::IbSubnetManager>(ib_graph);
    // Ethernet: 2560 NICs uplinked to four top-of-rack switches.
    std::map<std::string, std::pair<std::string, int>> uplinks;
    for (int s = 0; s < 4; ++s) {
      (void)eth_graph.AddVertex(Name("tor", 1, s), fabricsim::VertexKind::kSwitch, 640);
    }
    for (int i = 0; i < 2560; ++i) uplinks[Name("nic", 4, i)] = {Name("tor", 1, i % 4), i / 4};
    eth = std::make_unique<fabricsim::EthernetSwitchManager>(eth_graph);
    // NVMe-oF: 512 JBOF subsystems with one namespace each.
    nvme = std::make_unique<fabricsim::NvmeofTargetManager>(nvme_graph);
    for (int i = 0; i < 512; ++i) {
      const std::string device = Name("jbof", 3, i);
      const std::string nqn = "nqn.2026-01.org.ofmf:" + device;
      (void)nvme_graph.AddVertex(device, fabricsim::VertexKind::kDevice, 1);
      if (!nvme->CreateSubsystem(nqn, device).ok() ||
          !nvme->AddNamespace(nqn, 1, 4ull << 40).ok()) {
        return "nvme subsystem failed";
      }
    }
    for (const auto& agent : std::vector<std::shared_ptr<ofmf::core::FabricAgent>>{
             std::make_shared<ofmf::agents::CxlAgent>("CXL", *cxl),
             std::make_shared<ofmf::agents::IbAgent>("IB", *ib),
             std::make_shared<ofmf::agents::EthernetAgent>("Ethernet", *eth, uplinks),
             std::make_shared<ofmf::agents::NvmeofAgent>("NVMeoF", *nvme)}) {
      if (!ofmf.RegisterAgent(agent).ok()) return "agent " + agent->fabric_id() + " failed";
    }

    http::ServerOptions options;
    options.tenant_classifier = [this](const http::Request& request) {
      ofmf::qos::TenantSpec spec;
      const std::string tenant =
          ofmf.sessions().TenantOfToken(request.headers.GetOr("X-Auth-Token", ""));
      spec.id = tenant.empty() ? "default" : tenant;
      if (!tenant.empty()) {
        const auto info = ofmf.sessions().GetTenant(tenant);
        if (info.ok()) {
          spec.weight = info->weight;
          spec.rate_rps = info->rate_rps;
          spec.burst = info->burst;
        }
      }
      return spec;
    };
    const http::ServerHandler handler =
        traced ? TimedHandler(ofmf.Handler(), spans) : ofmf.Handler();
    if (!server.Start(handler, 0, options).ok()) return "server start failed";
    ofmf.telemetry().SetTenantQosSource([this] { return server.TenantQosStats(); });

    for (const char* user : kUsers) {
      ofmf::composability::OfmfClient client(std::make_unique<http::TcpClient>(server.port()));
      if (!client.Login(user, user).ok()) return std::string("login failed for ") + user;
      tokens.push_back(client.token());
    }
    return "";
  }
};

/// Runs the poll mix (or, for the warm-up, one GET of every leaf) and
/// verifies each response; keeps the ETags current for conditional GETs.
class PollLoad {
 public:
  PollLoad(PollStack& stack, const PollInventory& inventory, std::uint64_t seed)
      : stack_(stack), inventory_(inventory) {
    for (std::size_t c = 0; c < kConnections; ++c) mixes_.emplace_back(inventory, seed, c);
  }

  DriverResult WarmUp() {
    DriverConfig config = Config(~0ull, false, 1);
    config.max_ops = inventory_.leaves.size();
    std::size_t next_leaf = 0;
    const auto next = [&](std::size_t conn) {
      Op op;
      op.kind = kLeafGet;
      op.target = inventory_.leaves[next_leaf++ % inventory_.leaves.size()];
      op.headers.emplace_back("X-Auth-Token", stack_.tokens[conn]);
      return op;
    };
    return RunClosedLoop(config, next, Checker());
  }

  DriverResult Run(double seconds, bool traced, std::uint64_t first_seq,
                   std::function<void()> tick) {
    DriverConfig config =
        Config(NowNs() + static_cast<std::uint64_t>(seconds * 1e9), traced, first_seq);
    config.tick = std::move(tick);
    const auto next = [&](std::size_t conn) {
      Op op = mixes_[conn].Next();
      op.headers.emplace_back("X-Auth-Token", stack_.tokens[conn]);
      if (op.kind == kConditionalGet) {
        const auto it = etags_.find(op.target);
        if (it != etags_.end()) op.headers.emplace_back("If-None-Match", it->second);
      }
      return op;
    };
    return RunClosedLoop(config, next, Checker());
  }

 private:
  DriverConfig Config(std::uint64_t deadline_ns, bool traced, std::uint64_t first_seq) const {
    DriverConfig config;
    config.port = stack_.server.port();
    config.connections = kConnections;
    config.deadline_ns = deadline_ns;
    config.stamp_seq = traced;
    config.first_seq = first_seq;
    return config;
  }

  CheckOp Checker() {
    return [this](std::size_t, const Op& op, const http::Response& response) -> std::string {
      const std::string path = PathOf(op.target);
      switch (op.kind) {
        case kQueryGet: {
          const std::size_t q = static_cast<std::size_t>(
              std::find(inventory_.queries.begin(), inventory_.queries.end(),
                        op.target.substr(path.size())) -
              inventory_.queries.begin());
          if (q >= inventory_.queries.size()) return "unknown query";
          return CheckCollection(response, path, inventory_.query_counts[q]);
        }
        case kConditionalGet: {
          std::string sent;
          for (const auto& [name, value] : op.headers) {
            if (name == "If-None-Match") sent = value;
          }
          if (response.status == 304) {
            return response.headers.GetOr("ETag", "") == sent ? ""
                                                               : "304 with a different ETag";
          }
          std::string why = CheckDocument(response, 200, path, nullptr);
          if (!why.empty()) return why;
          const std::string etag = response.headers.GetOr("ETag", "");
          if (etag.empty() || etag == sent) return "200 for an unchanged ETag";
          etags_[path] = etag;
          return "";
        }
        case kLeafPatch: {
          Json doc;
          std::string why = CheckDocument(response, 200, path, &doc);
          if (!why.empty()) return why;
          // Another connection may PATCH the same leaf between this PATCH
          // and the read-back the response carries; either write counts.
          if (doc.GetString("Name").rfind("polled ", 0) != 0) return "PATCH did not apply";
          etags_[path] = response.headers.GetOr("ETag", "");
          return "";
        }
        default: {
          std::string why = CheckDocument(response, 200, path, nullptr);
          if (!why.empty()) return why;
          const std::string etag = response.headers.GetOr("ETag", "");
          if (etag.empty()) return "no ETag";
          etags_[path] = etag;
          return "";
        }
      }
    };
  }

  PollStack& stack_;
  const PollInventory& inventory_;
  std::vector<PollMix> mixes_;
  std::unordered_map<std::string, std::string> etags_;
};

/// Counters read around one timed window.
struct PollWindow {
  DriverResult result;
  http::ServerStats server_before, server_after;
  ofmf::redfish::ResponseCacheStats cache_before, cache_after;
  ProcCounters proc_before, proc_after;
  int idle_threads = 0;
  int peak_threads = 0;
};

PollWindow Measure(PollStack& stack, PollLoad& load, double seconds, bool traced,
                   std::uint64_t first_seq) {
  PollWindow window;
  window.idle_threads = ThreadCount();
  window.peak_threads = window.idle_threads;
  window.server_before = stack.server.stats();
  window.cache_before = stack.ofmf.rest().response_cache().stats();
  window.proc_before = ReadProcCounters();
  window.result = load.Run(seconds, traced, first_seq, [&window] {
    window.peak_threads = std::max(window.peak_threads, ThreadCount());
  });
  window.proc_after = ReadProcCounters();
  window.cache_after = stack.ofmf.rest().response_cache().stats();
  window.server_after = stack.server.stats();
  return window;
}

}  // namespace

void RunPollRead(const Options& options, Report& report) {
  const PollInventory inventory = PollInventory::Build();
  std::unique_ptr<PollStack> stack;
  std::unique_ptr<PollLoad> load;
  std::vector<double> setup_s;
  for (int round = 0; round < kSetups; ++round) {
    load.reset();
    stack.reset();
    const std::uint64_t start = NowNs();
    stack = std::make_unique<PollStack>();
    const std::string error = stack->Build(options.trace);
    if (!error.empty()) {
      report.Fail("poll_read set-up: " + error);
      return;
    }
    load = std::make_unique<PollLoad>(*stack, inventory, options.seed);
    const DriverResult warm = load->WarmUp();
    setup_s.push_back(SecondsSince(start));
    if (warm.failed != 0) {
      report.Fail("poll_read warm-up: " + std::to_string(warm.failed) +
                  " failed, first: " + warm.failures.front());
      return;
    }
  }
  report.Add(Scope::kEndToEnd, "setup_s", Median(setup_s), "s");
  report.Stamp("io_backend", stack->server.backend_name());
  report.Stamp("inventory", std::to_string(inventory.leaves.size()) + " leaves, response cache " +
                                std::to_string(stack->ofmf.rest().response_cache().capacity()));

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const PollWindow plain = Measure(*stack, *load, seconds, false, 1);
  report.CountOps(plain.result.attempted, plain.result.failed);
  for (const std::string& why : plain.result.failures) report.Fail(why);
  AddClientMetrics(report, plain.result, {kLeafGet, kConditionalGet}, {kQueryGet},
                   {kLeafPatch});
  report.Add(Scope::kDetail, "rps", report.value("ops_per_s"), "req/s");

  PollWindow traced;
  if (options.trace) {
    stack->spans.set_enabled(true);
    traced = Measure(*stack, *load, seconds, true, plain.result.next_seq);
    stack->spans.set_enabled(false);
    report.CountOps(traced.result.attempted, traced.result.failed);
    for (const std::string& why : traced.result.failures) report.Fail(why);
    const std::vector<HandlerSpan> spans = stack->spans.Take();
    const LayerSplit split = SplitByLayer(traced.result.samples, spans);
    AddLayerTimings(report, split, split.handle_us, Median(LatenciesOf(plain.result.samples, {})),
                    Median(LatenciesOf(traced.result.samples, {})));
    AddHandleByKind(report, traced.result.samples, spans,
                    {{kLeafGet, "get_leaf"}, {kQueryGet, "get_query"},
                     {kConditionalGet, "get_304"}, {kLeafPatch, "patch"}});
  }
  const PollWindow& counted = options.trace ? traced : plain;
  AddCacheCounters(report, counted.cache_before, counted.cache_after,
                   LatenciesOf(counted.result.samples, {kLeafPatch}).size());
  AddServerCounters(report, counted.server_before, counted.server_after);
  AddProcCounters(report, counted.proc_before, counted.proc_after,
                  counted.result.samples.size(), counted.idle_threads, counted.peak_threads);
  report.Add(Scope::kEndToEnd, "peak_rss_mb", ReadProcCounters().max_rss_mib, "MiB");
}

}  // namespace perfbench
