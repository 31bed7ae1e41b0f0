// compose_churn: the Slurm prolog/epilog path. Two job launchers, each a
// ComposabilityManager over an OfmfClient over a TcpClient, run job
// lifecycles against one durable, authenticated OFMF: compose (discover
// blocks, POST Systems), attach storage (POST NVMe-oF Connections, which
// calls the agent), detach, decompose. A third thread plays a fabric agent
// publishing Alert events open-loop at ~100/s to 16 wire subscribers the
// benchmark serves itself.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "agents/nvmeof_agent.hpp"
#include "composability/client.hpp"
#include "composability/manager.hpp"
#include "fabricsim/nvmeof.hpp"
#include "json/parse.hpp"
#include "layers.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "store/store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace http = ofmf::http;
namespace fabricsim = ofmf::fabricsim;
namespace composability = ofmf::composability;
using ofmf::json::Json;

namespace {

constexpr std::size_t kLaunchers = 2;
constexpr int kSetups = 21;  // ~15 ms each
constexpr std::size_t kSubscribers = 16;
constexpr int kEventIntervalUs = 10000;  // ~100 events/s
constexpr const char* kConnections = "/redfish/v1/Fabrics/NVMeoF/Connections";
constexpr const char* kAlertPrefix = "perfbench-alert ";

std::string HostNqn(std::size_t launcher) {
  return "nqn.2026-01.org.ofmf:node" + std::to_string(launcher);
}

/// The requests a launcher makes, by what they do in the job lifecycle.
enum CallKind {
  kMemberGet = 0,   // ResourceBlock member GET (discovery)
  kBlocksList = 1,  // ResourceBlocks collection GET (discovery)
  kComposePost = 2,
  kAttach = 3,
  kDetach = 4,
  kDecompose = 5,
};

int ClassifyCall(const http::Request& request) {
  const bool connection = request.path.rfind(kConnections, 0) == 0;
  switch (request.method) {
    case http::Method::kGet:
      return request.path == ofmf::core::kResourceBlocks ? kBlocksList : kMemberGet;
    case http::Method::kPost: return connection ? kAttach : kComposePost;
    default: return connection ? kDetach : kDecompose;
  }
}

/// What the 16 subscribers received: per (subscriber, event id) receipt
/// counts and one lag sample per receipt.
class Receipts {
 public:
  void Record(std::size_t subscriber, std::uint64_t id, double lag_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint16_t>& counts = counts_[subscriber];
    if (counts.size() <= id) counts.resize(id + 1, 0);
    ++counts[id];
    lag_ms_.push_back(lag_ms);
  }
  /// Receipts of events [first, last): (missing, duplicated) deliveries.
  std::pair<std::uint64_t, std::uint64_t> Check(std::uint64_t first, std::uint64_t last) {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t missing = 0, duplicated = 0;
    for (const std::vector<std::uint16_t>& counts : counts_) {
      for (std::uint64_t id = first; id < last; ++id) {
        const std::uint16_t n = id < counts.size() ? counts[id] : 0;
        if (n == 0) ++missing;
        if (n > 1) duplicated += n - 1u;
      }
    }
    return {missing, duplicated};
  }
  std::vector<double> TakeLags() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(lag_ms_);
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<std::uint16_t>> counts_ =
      std::vector<std::vector<std::uint16_t>>(kSubscribers);
  std::vector<double> lag_ms_;
};

/// One launcher's client stack and its record of one timed window.
struct Launcher {
  TimingClient* timing = nullptr;  // owned by `client`
  std::unique_ptr<composability::OfmfClient> client;
  std::unique_ptr<composability::ComposabilityManager> manager;
  JobMix mix;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Timed> alloc;             // Compose start -> attach 201, us
  std::vector<std::uint64_t> done_ns;  // job completions
  std::vector<TimingClient::Call> calls;

  Launcher(std::uint64_t seed, std::size_t index) : mix(seed, index) {}
};

struct ComposeStack {
  std::string store_dir;
  fabricsim::FabricGraph graph;
  std::unique_ptr<fabricsim::NvmeofTargetManager> nvme;
  std::shared_ptr<TimingAgent> agent;  // times calls in traced runs only
  Receipts receipts;
  http::TcpServer subscriber_server;
  ofmf::core::OfmfService ofmf;
  SpanLog spans;
  http::TcpServer server;
  std::atomic<std::uint64_t> seq{1};
  std::atomic<bool> stamp{false};
  std::vector<std::unique_ptr<Launcher>> launchers;
  std::vector<std::string> blocks;

  ~ComposeStack() {
    server.Stop();
    ofmf.events().FlushDelivery(2000);
    subscriber_server.Stop();
    (void)ofmf.FlushStore();
    std::error_code ignored;
    std::filesystem::remove_all(store_dir, ignored);
  }

  std::string Build(const Options& options, int round) {
    store_dir = options.work_dir + "/compose-" + std::to_string(::getpid()) + "-" +
                std::to_string(round);
    std::error_code error;
    std::filesystem::remove_all(store_dir, error);
    std::filesystem::create_directories(store_dir, error);
    if (error) return "cannot create " + store_dir;

    // Subscribers: one TcpServer the benchmark owns, one path per subscriber.
    const auto subscriber = [this](const http::Request& request) {
      const std::size_t index = std::strtoul(
          request.path.substr(request.path.rfind('/') + 1).c_str(), nullptr, 10);
      const std::uint64_t now = NowNs();
      auto doc = ofmf::json::Parse(request.body.view());
      if (!doc.ok() || index >= kSubscribers) return http::MakeEmptyResponse(400);
      const Json& events = doc->at("Events");
      if (!events.is_array()) return http::MakeEmptyResponse(400);
      for (const Json& event : events.as_array()) {
        const std::string message = event.GetString("Message");
        if (message.rfind(kAlertPrefix, 0) != 0) continue;  // not the agent thread's
        char* end = nullptr;
        const std::uint64_t id = std::strtoull(message.c_str() + std::strlen(kAlertPrefix), &end, 10);
        const std::uint64_t sent_ns = std::strtoull(end, nullptr, 10);
        receipts.Record(index, id, static_cast<double>(now - sent_ns) / 1e6);
      }
      return http::MakeEmptyResponse(204);
    };
    if (!subscriber_server.Start(subscriber).ok()) return "subscriber server start failed";

    if (!ofmf.Bootstrap().ok()) return "bootstrap failed";
    ofmf::store::StoreOptions store_options;
    store_options.dir = store_dir;
    auto store = ofmf::store::PersistentStore::Open(store_options);
    if (!store.ok()) return "store open failed: " + store.status().message();
    if (!ofmf.EnableDurability(std::move(*store)).ok()) return "durability failed";
    ofmf.sessions().set_auth_required(true);

    // NVMe-oF fabric: one host per launcher and four JBOFs on one switch.
    (void)graph.AddVertex("tor", fabricsim::VertexKind::kSwitch, 8);
    nvme = std::make_unique<fabricsim::NvmeofTargetManager>(graph);
    int port = 0;
    for (std::size_t l = 0; l < kLaunchers; ++l) {
      const std::string vertex = "node" + std::to_string(l);
      (void)graph.AddVertex(vertex, fabricsim::VertexKind::kDevice, 1);
      (void)graph.Connect(vertex, 0, "tor", port++);
      if (!nvme->RegisterHostPort(HostNqn(l), vertex).ok()) return "host port failed";
    }
    for (int j = 0; j < JobMix::kSubsystems; ++j) {
      const std::string vertex = "jbof" + std::to_string(j);
      (void)graph.AddVertex(vertex, fabricsim::VertexKind::kDevice, 1);
      (void)graph.Connect(vertex, 0, "tor", port++);
      if (!nvme->CreateSubsystem(JobMix::SubsystemNqn(j), vertex).ok() ||
          !nvme->AddNamespace(JobMix::SubsystemNqn(j), 1, 16ull << 40).ok()) {
        return "subsystem failed";
      }
    }
    agent = std::make_shared<TimingAgent>(
        std::make_shared<ofmf::agents::NvmeofAgent>("NVMeoF", *nvme));
    if (!ofmf.RegisterAgent(agent).ok()) return "agent failed";
    if (!ofmf.ReconcileWithAgents().ok()) return "reconcile failed";

    // ResourceBlock pool partitioned by rack: each launcher composes from
    // its own rack, which always holds enough for its largest job.
    for (std::size_t r = 0; r < kLaunchers; ++r) {
      for (int i = 0; i < 2; ++i) {
        const std::string rack = "rack" + std::to_string(r);
        const std::string suffix = rack + "-" + std::to_string(i);
        ofmf::core::BlockCapability cpu, mem, disk;
        cpu.id = "cpu-" + suffix;
        cpu.block_type = "Compute";
        cpu.cores = 8;
        cpu.memory_gib = 16;
        mem.id = "mem-" + suffix;
        mem.block_type = "Memory";
        mem.memory_gib = 64;
        disk.id = "ssd-" + suffix;
        disk.block_type = "Storage";
        disk.storage_gib = 512;
        for (ofmf::core::BlockCapability* block : {&cpu, &mem, &disk}) {
          block->locality = rack;
          auto uri = ofmf.composition().RegisterBlock(*block);
          if (!uri.ok()) return "block register failed";
          blocks.push_back(*uri);
        }
      }
    }

    for (std::size_t s = 0; s < kSubscribers; ++s) {
      const auto subscribed = ofmf.events().Subscribe(Json::Obj(
          {{"Destination", "http://127.0.0.1:" + std::to_string(subscriber_server.port()) +
                               "/events/" + std::to_string(s)},
           {"EventTypes", Json::Arr({"Alert"})},
           {"Protocol", "Redfish"},
           {"Context", "perfbench-" + std::to_string(s)}}));
      if (!subscribed.ok()) return "subscribe failed: " + subscribed.status().message();
    }

    const http::ServerHandler handler =
        options.trace ? TimedHandler(ofmf.Handler(), spans) : ofmf.Handler();
    if (!server.Start(handler).ok()) return "server start failed";
    for (std::size_t l = 0; l < kLaunchers; ++l) {
      auto launcher = std::make_unique<Launcher>(options.seed, l);
      auto timing = std::make_unique<TimingClient>(
          std::make_unique<http::TcpClient>(server.port()), ClassifyCall, seq, stamp);
      launcher->timing = timing.get();
      launcher->client = std::make_unique<composability::OfmfClient>(std::move(timing));
      if (!launcher->client->Login("admin", "ofmf").ok()) return "login failed";
      launcher->manager = std::make_unique<composability::ComposabilityManager>(*launcher->client);
      launchers.push_back(std::move(launcher));
    }
    // Warm-up: one discovery per launcher fills the client ETag caches.
    for (auto& launcher : launchers) {
      if (!launcher->manager->DiscoverBlocks().ok()) return "warm-up discovery failed";
    }
    return "";
  }
};

/// One job lifecycle; false (with a reason) when any step failed.
bool RunJob(Launcher& launcher, std::size_t index, std::uint64_t job) {
  const JobPlan plan = launcher.mix.Next();
  composability::CompositionRequest request;
  request.name = "job-" + std::to_string(index) + "-" + std::to_string(job);
  request.cores = plan.cores;
  request.memory_gib = plan.memory_gib;
  request.storage_gib = plan.storage_gib;
  request.locality_hint = "rack" + std::to_string(index);
  request.policy = composability::Policy::kLocalityAware;

  const auto fail = [&](const std::string& why) {
    ++launcher.failed;
    if (launcher.failures.size() < 4) launcher.failures.push_back(request.name + ": " + why);
    return false;
  };
  const std::uint64_t start = NowNs();
  auto composed = launcher.manager->Compose(request);
  if (!composed.ok()) return fail("compose: " + composed.status().message());
  for (const std::string& block : composed->block_uris) {
    if (block.find("rack" + std::to_string(index)) == std::string::npos) {
      return fail("composed from another rack's block " + block);
    }
  }
  auto connection = launcher.client->Post(
      kConnections,
      Json::Obj({{"Name", request.name},
                 {"ConnectionType", "Storage"},
                 {"Oem", Json::Obj({{"Ofmf", Json::Obj({{"HostNqn", HostNqn(index)},
                                                        {"SubsystemNqn", plan.subsystem_nqn}})}})}}));
  if (!connection.ok()) return fail("attach: " + connection.status().message());
  launcher.alloc.push_back(Timed{start, static_cast<double>(NowNs() - start) / 1e3});
  const ofmf::Status detached = launcher.client->Delete(*connection);
  if (!detached.ok()) return fail("detach: " + detached.message());
  const ofmf::Status decomposed = launcher.manager->Decompose(composed->system_uri);
  if (!decomposed.ok()) return fail("decompose: " + decomposed.message());
  ++launcher.jobs;
  launcher.done_ns.push_back(NowNs());
  return true;
}

/// Everything one timed window of compose_churn measured.
struct ChurnWindow {
  double elapsed_s = 0.0;
  std::uint64_t jobs = 0, failed_jobs = 0;
  std::vector<Timed> alloc;
  std::vector<std::uint64_t> done_ns;
  std::vector<TimingClient::Call> calls;
  std::vector<std::string> failures;
  std::vector<double> publish_us;
  std::vector<double> publish_late_us;
  std::uint64_t first_event = 0, last_event = 0;
  http::ServerStats server_before, server_after;
  ofmf::redfish::ResponseCacheStats cache_before, cache_after;
  ofmf::store::StoreStats store_before, store_after;
  ofmf::core::DeliverySnapshot delivery_before, delivery_after;
  std::uint64_t etag_hits = 0, etag_misses = 0;
  ProcCounters proc_before, proc_after;
  int idle_threads = 0, peak_threads = 0;
};

ChurnWindow RunWindow(ComposeStack& stack, double seconds, std::uint64_t first_event) {
  ChurnWindow window;
  window.first_event = first_event;
  window.idle_threads = ThreadCount();
  window.peak_threads = window.idle_threads;
  std::uint64_t etag_hits_before = 0, etag_misses_before = 0;
  for (auto& launcher : stack.launchers) {
    etag_hits_before += launcher->client->etag_cache_hits();
    etag_misses_before += launcher->client->etag_cache_misses();
  }
  window.server_before = stack.server.stats();
  window.cache_before = stack.ofmf.rest().response_cache().stats();
  window.store_before = stack.ofmf.store()->stats();
  window.delivery_before = stack.ofmf.events().CollectDelivery();
  window.proc_before = ReadProcCounters();

  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < stack.launchers.size(); ++l) {
    threads.emplace_back([&stack, l, deadline] {
      Launcher& launcher = *stack.launchers[l];
      launcher.timing->set_recording(true);
      for (std::uint64_t job = 0; NowNs() < deadline; ++job) RunJob(launcher, l, job);
      launcher.timing->set_recording(false);
      launcher.calls = launcher.timing->TakeCalls();
    });
  }
  // The fabric agent: Alerts on a fixed schedule, each stamped with the
  // instant Publish was called.
  std::uint64_t next_event = first_event;
  threads.emplace_back([&stack, &window, &next_event, start, deadline] {
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t due = start + k * kEventIntervalUs * 1000ull;
      if (due >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          due > NowNs() ? due - NowNs() : 0));
      const std::uint64_t called = NowNs();
      ofmf::core::Event event;
      event.event_type = "Alert";
      event.message_id = "Perfbench.1.0.FabricAlert";
      event.message = kAlertPrefix + std::to_string(next_event) + " " + std::to_string(called);
      event.origin = "/redfish/v1/Fabrics/NVMeoF";
      stack.ofmf.events().Publish(event);
      window.publish_us.push_back(static_cast<double>(NowNs() - called) / 1e3);
      window.publish_late_us.push_back(static_cast<double>(called - due) / 1e3);
      ++next_event;
    }
  });
  while (NowNs() < deadline) {
    window.peak_threads = std::max(window.peak_threads, ThreadCount());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (std::thread& thread : threads) thread.join();
  window.elapsed_s = SecondsSince(start);
  window.last_event = next_event;
  window.proc_after = ReadProcCounters();
  window.server_after = stack.server.stats();
  window.cache_after = stack.ofmf.rest().response_cache().stats();
  window.store_after = stack.ofmf.store()->stats();

  for (auto& launcher : stack.launchers) {
    window.jobs += launcher->jobs;
    window.failed_jobs += launcher->failed;
    window.alloc.insert(window.alloc.end(), launcher->alloc.begin(), launcher->alloc.end());
    window.done_ns.insert(window.done_ns.end(), launcher->done_ns.begin(),
                          launcher->done_ns.end());
    window.calls.insert(window.calls.end(), launcher->calls.begin(), launcher->calls.end());
    window.failures.insert(window.failures.end(), launcher->failures.begin(),
                           launcher->failures.end());
    for (std::string& error : launcher->timing->TakeErrors()) {
      window.failures.push_back(std::move(error));
    }
    window.etag_hits += launcher->client->etag_cache_hits();
    window.etag_misses += launcher->client->etag_cache_misses();
    launcher->jobs = launcher->failed = 0;
    launcher->alloc.clear();
    launcher->done_ns.clear();
    launcher->calls.clear();
    launcher->failures.clear();
  }
  window.etag_hits -= etag_hits_before;
  window.etag_misses -= etag_misses_before;
  if (!stack.ofmf.events().FlushDelivery(10000)) window.failures.push_back("event delivery did not drain");
  window.delivery_after = stack.ofmf.events().CollectDelivery();
  return window;
}

std::vector<Sample> SamplesOf(const std::vector<TimingClient::Call>& calls) {
  std::vector<Sample> samples;
  for (const TimingClient::Call& call : calls) {
    samples.push_back(Sample{call.kind, call.seq, call.send_ns, call.recv_ns});
  }
  return samples;
}

/// Counts a window's jobs and event deliveries as ops and fails the bad ones.
void Account(Report& report, ComposeStack& stack, const ChurnWindow& window) {
  report.CountOps(window.jobs + window.failed_jobs, window.failed_jobs);
  for (const std::string& why : window.failures) report.Fail(why);
  const std::uint64_t events = window.last_event - window.first_event;
  const auto [missing, duplicated] = stack.receipts.Check(window.first_event, window.last_event);
  report.CountOps(events * kSubscribers, missing + duplicated);
  if (missing + duplicated != 0) {
    report.Fail(std::to_string(missing) + " event deliveries missing, " +
                std::to_string(duplicated) + " duplicated");
  }
}

std::string CheckDrained(ComposeStack& stack) {
  auto& tree = stack.ofmf.tree();
  const auto members = [&](const std::string& uri) -> long long {
    auto doc = tree.Get(uri);
    if (!doc.ok() || !doc->at("Members").is_array()) return -1;
    return static_cast<long long>(doc->at("Members").as_array().size());
  };
  if (const long long systems = members(ofmf::core::kSystems); systems != 0) {
    return std::to_string(systems) + " composed systems left";
  }
  if (const long long connections = members(kConnections); connections != 0) {
    return std::to_string(connections) + " storage connections left";
  }
  for (const std::string& block : stack.blocks) {
    auto doc = tree.Get(block);
    if (!doc.ok()) return block + " vanished";
    if (doc->at("CompositionStatus").GetString("CompositionState") != "Unused" ||
        !doc->at("Oem").at("Ofmf").GetString("ClaimedBy").empty()) {
      return block + " is still claimed";
    }
  }
  return "";
}

}  // namespace

void RunComposeChurn(const Options& options, Report& report) {
  std::unique_ptr<ComposeStack> stack;
  std::vector<double> setup_s;
  for (int round = 0; round < kSetups; ++round) {
    stack.reset();
    const std::uint64_t start = NowNs();
    stack = std::make_unique<ComposeStack>();
    const std::string error = stack->Build(options, round);
    setup_s.push_back(SecondsSince(start));
    if (!error.empty()) {
      report.Fail("compose_churn set-up: " + error);
      return;
    }
  }
  report.Add(Scope::kEndToEnd, "setup_s", Median(setup_s), "s");
  report.Stamp("io_backend", stack->server.backend_name());
  report.Stamp("store_fs", FilesystemType(stack->store_dir));
  report.Stamp("store", "group commit, fsync on commit (StoreOptions defaults)");

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const ChurnWindow plain = RunWindow(*stack, seconds, 0);
  Account(report, *stack, plain);
  const std::vector<Sample> plain_samples = SamplesOf(plain.calls);
  const std::vector<double> lags_ms = stack->receipts.TakeLags();

  report.Add(Scope::kEndToEnd, "ops_per_s", SlicedRate(plain.done_ns), "1/s");
  report.AddRoundTrip("get", TimedOf(plain_samples, {kMemberGet}));
  report.AddRoundTrip("collection", TimedOf(plain_samples, {kBlocksList}));
  report.AddRoundTrip("write", TimedOf(plain_samples, {kComposePost, kAttach, kDetach, kDecompose}));
  report.Add(Scope::kDetail, "jobs_per_s", report.value("ops_per_s"), "jobs/s");
  report.Add(Scope::kDetail, "rps",
             static_cast<double>(plain.calls.size()) / std::max(plain.elapsed_s, 1e-9), "req/s");
  Latency alloc_ms = Summarize(ValuesOf(plain.alloc));
  alloc_ms.p50 /= 1e3;
  alloc_ms.p99 /= 1e3;
  report.AddLatency(Scope::kDetail, "alloc_p50_ms", "alloc_p99_ms", alloc_ms, "ms");
  report.AddLatency(Scope::kDetail, "event_lag_p50_ms", "event_lag_p99_ms", Summarize(lags_ms),
                    "ms");

  ChurnWindow traced;
  if (options.trace) {
    HistogramDelta claim("compose.claim.ns"), create("compose.create.ns"),
        fsync("journal.fsync.ns"), commit("journal.commit.ns");
    stack->stamp.store(true);
    stack->spans.set_enabled(true);
    stack->agent->set_enabled(true);
    traced = RunWindow(*stack, seconds, plain.last_event);
    stack->spans.set_enabled(false);
    stack->agent->set_enabled(false);
    stack->stamp.store(false);
    Account(report, *stack, traced);
    (void)stack->receipts.TakeLags();

    const std::vector<Sample> samples = SamplesOf(traced.calls);
    const std::vector<HandlerSpan> spans = stack->spans.Take();
    const LayerSplit split = SplitByLayer(samples, spans);
    std::vector<double> handle_us;
    for (const HandlerSpan& span : spans) handle_us.push_back(span.us());
    AddLayerTimings(report, split, handle_us, Median(ValuesOf(plain.alloc)),
                    Median(ValuesOf(traced.alloc)));
    AddHandleByKind(report, samples, spans,
                    {{kMemberGet, "blocks_get"}, {kBlocksList, "blocks_list"},
                     {kComposePost, "compose"}, {kAttach, "attach"}, {kDetach, "detach"},
                     {kDecompose, "decompose"}});
    const double jobs = static_cast<double>(std::max<std::uint64_t>(traced.jobs, 1));
    report.Add(Scope::kDetail, "ofmf.compose_claim_us.p50", claim.Delta().Percentile(0.50) / 1e3,
               "us");
    report.Add(Scope::kDetail, "ofmf.compose_create_us.p50",
               create.Delta().Percentile(0.50) / 1e3, "us");
    const auto fsyncs = fsync.Delta();
    report.Add(Scope::kDetail, "store.fsync_us.p50", fsyncs.Percentile(0.50) / 1e3, "us");
    report.Add(Scope::kDetail, "store.fsync_us.p99", fsyncs.Percentile(0.99) / 1e3, "us");
    report.Add(Scope::kDetail, "store.commit_us.p99", commit.Delta().Percentile(0.99) / 1e3, "us");
    const std::vector<double> agent_us = stack->agent->TakeCalls();
    report.AddLatency(Scope::kDetail, "agents.call_us.p50", "agents.call_us.p99",
                      Summarize(agent_us), "us");
    report.Add(Scope::kDetail, "agents.calls_per_job", static_cast<double>(agent_us.size()) / jobs,
               "count");
    report.AddLatency(Scope::kDetail, "events.publish_us.p50", "events.publish_us.p99",
                      Summarize(traced.publish_us), "us");
    report.Add(Scope::kDetail, "composability.rtt_us.p50",
               Median(LatenciesOf(samples, {})), "us");
  }
  const ChurnWindow& counted = options.trace ? traced : plain;
  const double jobs = static_cast<double>(std::max<std::uint64_t>(counted.jobs, 1));
  std::size_t writes = 0;
  for (const TimingClient::Call& call : counted.calls) writes += call.kind >= kComposePost;
  AddCacheCounters(report, counted.cache_before, counted.cache_after, writes);
  AddServerCounters(report, counted.server_before, counted.server_after);
  AddProcCounters(report, counted.proc_before, counted.proc_after, counted.jobs,
                  counted.idle_threads, counted.peak_threads);

  const ofmf::store::StoreStats& sb = counted.store_before;
  const ofmf::store::StoreStats& sa = counted.store_after;
  report.Add(Scope::kDetail, "store.fsyncs_per_job", static_cast<double>(sa.fsyncs - sb.fsyncs) / jobs,
             "count");
  report.Add(Scope::kDetail, "store.records_per_commit",
             sa.commits == sb.commits ? 0.0
                                      : static_cast<double>(sa.committed - sb.committed) /
                                            static_cast<double>(sa.commits - sb.commits),
             "count");
  report.Add(Scope::kDetail, "composability.requests_per_job",
             static_cast<double>(counted.calls.size()) / jobs, "count");
  report.Add(Scope::kDetail, "composability.not_modified_ratio",
             counted.etag_hits + counted.etag_misses == 0
                 ? 0.0
                 : static_cast<double>(counted.etag_hits) /
                       static_cast<double>(counted.etag_hits + counted.etag_misses),
             "ratio");
  const auto& db = counted.delivery_before;
  const auto& da = counted.delivery_after;
  report.Add(Scope::kDetail, "events.events_per_batch",
             da.batches == db.batches ? 0.0
                                      : static_cast<double>(da.delivered - db.delivered) /
                                            static_cast<double>(da.batches - db.batches),
             "count");
  const std::uint64_t events = counted.last_event - counted.first_event;
  const auto [missing, duplicated] = stack->receipts.Check(counted.first_event, counted.last_event);
  report.Add(Scope::kDetail, "events.completeness",
             events == 0 ? 0.0
                         : 1.0 - static_cast<double>(missing) /
                                     static_cast<double>(events * kSubscribers),
             "ratio");
  (void)duplicated;
  report.Add(Scope::kDetail, "events.dropped", static_cast<double>(da.dropped - db.dropped), "count");
  report.Add(Scope::kDetail, "events.retries", static_cast<double>(da.retries - db.retries), "count");
  report.Add(Scope::kDetail, "events.publish_path_sends",
             static_cast<double>(stack->ofmf.events().publish_path_sends()), "count");
  report.Add(Scope::kDetail, "events.generator_late_us.p99",
             Summarize(counted.publish_late_us).p99, "us");
  if (da.dropped != db.dropped || stack->ofmf.events().publish_path_sends() != 0) {
    report.Fail("event delivery dropped events or sent on the publish path");
  }

  if (const std::string left = CheckDrained(*stack); !left.empty()) {
    report.Fail("after the churn drained: " + left);
  }
  report.Add(Scope::kEndToEnd, "peak_rss_mb", ReadProcCounters().max_rss_mib, "MiB");
}

}  // namespace perfbench
