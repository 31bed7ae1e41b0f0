// Event fan-out engine tests: fault isolation of the publish path, full-
// jitter retry backoff, breaker-bounded probing of dead endpoints, overflow
// drop-oldest with the EventQueueFull meta-event, batch coalescing, SSE
// streaming over the reactor, and durable delivery-cursor crash recovery.
// Runs under the TSan/ASan CI jobs.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.hpp"
#include "http/server.hpp"
#include "http/sse.hpp"
#include "json/parse.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "store/store.hpp"

namespace ofmf {
namespace {

using core::DeliveryConfig;
using core::Event;
using json::Json;
using ::testing::HasSubstr;

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Scriptable push sink running on delivery workers: the test can block it,
/// flip it into failure mode, and inspect everything that was delivered.
class GateSink {
 public:
  http::Response Handle(const http::Request& request) {
    std::unique_lock<std::mutex> lock(mu_);
    ++calls_;
    call_times_.push_back(Clock::now());
    cv_.wait(lock, [this] { return !blocked_; });
    if (fail_) return http::MakeTextResponse(503, "busy");
    if (auto body = request.JsonBody(); body.ok()) bodies_.push_back(*body);
    return http::MakeEmptyResponse(204);
  }

  core::ClientFactory factory() {
    return [this](const std::string&) -> std::unique_ptr<http::HttpClient> {
      return std::make_unique<http::InProcessClient>(
          [this](const http::Request& request) { return Handle(request); });
    };
  }

  void Block() {
    std::lock_guard<std::mutex> lock(mu_);
    blocked_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      blocked_ = false;
    }
    cv_.notify_all();
  }
  void set_fail(bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_ = fail;
  }
  int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  std::vector<Clock::time_point> call_times() const {
    std::lock_guard<std::mutex> lock(mu_);
    return call_times_;
  }
  std::vector<Json> bodies() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bodies_;
  }
  /// MessageIds of every delivered event, across batches, in wire order.
  std::vector<std::string> delivered_message_ids() const {
    std::vector<std::string> ids;
    for (const Json& body : bodies()) {
      for (const Json& entry : body.at("Events").as_array()) {
        ids.push_back(entry.GetString("MessageId"));
      }
    }
    return ids;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool fail_ = false;
  int calls_ = 0;
  std::vector<Clock::time_point> call_times_;
  std::vector<Json> bodies_;
};

Event MakeAlert(const std::string& message_id) {
  Event event;
  event.event_type = "Alert";
  event.message_id = message_id;
  event.message = "test alert";
  event.origin = core::kServiceRoot;
  return event;
}

Result<std::string> SubscribeWire(core::OfmfService& ofmf, const std::string& destination,
                                  const std::vector<std::string>& event_types = {}) {
  Json body = Json::Obj({{"Destination", destination}, {"Protocol", "Redfish"}});
  if (!event_types.empty()) {
    json::Array types;
    for (const std::string& type : event_types) types.push_back(Json(type));
    body.as_object().Set("EventTypes", Json(std::move(types)));
  }
  return ofmf.events().Subscribe(body);
}

// ------------------------------------------------ Publish fault isolation ---

TEST(EventFanoutTest, StalledSubscriberDoesNotDelayPublish) {
  GateSink sink;
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  ofmf.events().set_client_factory(sink.factory());
  ASSERT_TRUE(SubscribeWire(ofmf, "http://stalled/events", {"Alert"}).ok());

  // The sink blocks its delivery worker indefinitely; the publisher must
  // not notice. (The old synchronous path would hold the event mutex across
  // this stall, delaying every Publish by the subscriber's latency.)
  sink.Block();
  double worst_ms = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point before = Clock::now();
    ofmf.events().Publish(MakeAlert("Fanout.1.0.Stalled" + std::to_string(i)));
    worst_ms = std::max(worst_ms, MsBetween(before, Clock::now()));
  }
  // Enqueue-only: generous CI bound, still orders of magnitude below a
  // single blocked delivery.
  EXPECT_LT(worst_ms, 20.0);
  // The async contract, measured, not assumed: zero network sends happened
  // on any thread while Publish was on its stack.
  EXPECT_EQ(ofmf.events().publish_path_sends(), 0u);

  sink.Release();
  EXPECT_TRUE(ofmf.events().FlushDelivery(10000));
  EXPECT_EQ(ofmf.events().publish_path_sends(), 0u);
}

// ----------------------------------------------------- Full-jitter backoff ---

TEST(EventFanoutTest, RetryUsesFullJitterBackoff) {
  GateSink sink;
  sink.set_fail(true);
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  DeliveryConfig config;
  config.retry_attempts = 4;
  config.base_backoff_ms = 20;
  config.max_backoff_ms = 250;
  ofmf.events().ConfigureDelivery(config);
  ofmf.events().set_client_factory(sink.factory());
  ASSERT_TRUE(SubscribeWire(ofmf, "http://flaky/events", {"Alert"}).ok());

  ofmf.events().Publish(MakeAlert("Fanout.1.0.Backoff"));
  ASSERT_TRUE(ofmf.events().FlushDelivery(10000));

  const std::vector<Clock::time_point> times = sink.call_times();
  ASSERT_EQ(times.size(), 4u);  // the full retry budget was spent
  EXPECT_EQ(ofmf.events().delivery_retries(), 3u);
  EXPECT_EQ(ofmf.events().delivery_failures(), 1u);
  // Full jitter Uniform(0, min(max, base*2^(k-1))): the three waits are
  // bounded above by 20+40+80 ms, and (seeded deterministically) are not
  // hot-spin zero-delay retries.
  const double total_ms = MsBetween(times.front(), times.back());
  EXPECT_LT(total_ms, 400.0);
  EXPECT_GT(total_ms, 1.0);
}

// ------------------------------------------------- Breaker probe budgeting ---

TEST(EventFanoutTest, BreakerCapsProbesOfBlackholedEndpoint) {
  GateSink sink;
  sink.set_fail(true);
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  DeliveryConfig config;
  config.retry_attempts = 1;   // every allowed attempt settles its batch
  config.batch_max_events = 4; // keep a backlog for the breaker to shield
  config.base_backoff_ms = 1;
  config.max_backoff_ms = 4;
  // Long relative to the drain so the open breaker shields nearly every
  // batch — even under sanitizer slowdown, probes stay far below batches.
  config.breaker_cooldown_ms = 100;
  ofmf.events().ConfigureDelivery(config);
  ofmf.events().set_client_factory(sink.factory());
  ASSERT_TRUE(SubscribeWire(ofmf, "http://blackhole/events", {"Alert"}).ok());

  constexpr int kEvents = 40;
  for (int i = 0; i < kEvents; ++i) {
    ofmf.events().Publish(MakeAlert("Fanout.1.0.Dead" + std::to_string(i)));
  }
  ASSERT_TRUE(ofmf.events().FlushDelivery(15000));

  // Without the breaker this would be ~kEvents sends. With it the endpoint
  // costs the closed-state failures plus one half-open probe per cooldown.
  EXPECT_LE(sink.calls(), 12);
  EXPECT_GE(sink.calls(), 3);
  EXPECT_EQ(ofmf.events().delivery_failures(), static_cast<std::uint64_t>(kEvents));

  const core::DeliverySnapshot snapshot = ofmf.events().CollectDelivery();
  ASSERT_EQ(snapshot.subscribers.size(), 1u);
  EXPECT_GE(snapshot.subscribers[0].breaker_stats.opens, 1u);
  EXPECT_GE(snapshot.subscribers[0].breaker_stats.rejected, 1u);
}

// ---------------------------------------- Overflow: drop-oldest + alerting ---

TEST(EventFanoutTest, OverflowDropsOldestAndPublishesQueueFullAlert) {
  GateSink sink;
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  DeliveryConfig config;
  config.queue_capacity = 4;
  config.batch_max_events = 2;
  ofmf.events().ConfigureDelivery(config);
  ofmf.events().set_client_factory(sink.factory());
  ASSERT_TRUE(SubscribeWire(ofmf, "http://slow/events", {"StatusChange"}).ok());
  // An internal watcher for the meta-event the overflow must surface.
  const Result<std::string> watch = ofmf.events().Subscribe(
      *json::Parse(R"({"Destination":"ofmf-internal://watch","Protocol":"OEM",
                       "EventTypes":["Alert"]})"));
  ASSERT_TRUE(watch.ok());

  sink.Block();
  constexpr int kEvents = 12;
  for (int i = 0; i < kEvents; ++i) {
    Event event;
    event.event_type = "StatusChange";
    event.message_id = "Fanout.1.0.Burst" + std::to_string(i);
    event.origin = core::kServiceRoot;
    ofmf.events().Publish(event);
  }
  // Publish only hands events to the dispatcher thread. Release once the whole
  // burst sits in the subscriber queue: a release while it is still arriving
  // could let the queue drain to empty in between, which starts a second
  // overflow episode and a second alert.
  for (int spin = 0;
       ofmf.events().CollectDelivery().subscribers[0].enqueued <
           static_cast<std::uint64_t>(kEvents) &&
       spin < 10000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sink.Release();
  ASSERT_TRUE(ofmf.events().FlushDelivery(10000));

  // Bounded queue: some events were dropped (oldest first), and the books
  // balance: every enqueued event was either delivered or counted dropped.
  const core::DeliverySnapshot snapshot = ofmf.events().CollectDelivery();
  ASSERT_EQ(snapshot.subscribers.size(), 1u);
  const core::SubscriberSnapshot& sub = snapshot.subscribers[0];
  EXPECT_EQ(sub.enqueued, static_cast<std::uint64_t>(kEvents));
  EXPECT_GT(sub.dropped, 0u);
  EXPECT_EQ(sub.delivered + sub.dropped, static_cast<std::uint64_t>(kEvents));
  // Drop-oldest: the newest event survived the burst.
  const std::vector<std::string> delivered = sink.delivered_message_ids();
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.back(), "Fanout.1.0.Burst" + std::to_string(kEvents - 1));

  // The overflow surfaced as a Redfish Alert meta-event: one per episode,
  // naming the subscription and its cumulative drop count.
  const auto alerts = ofmf.events().Drain(*watch);
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 1u);
  const Json& alert = (*alerts)[0].at("Events").as_array()[0];
  EXPECT_EQ(alert.GetString("MessageId"), "EventService.1.0.EventQueueFull");
  EXPECT_THAT(alert.at("OriginOfCondition").GetString("@odata.id"),
              HasSubstr("/EventService/Subscriptions/"));
  EXPECT_GE((*alerts)[0].at("Oem").GetInt("DroppedTotal"), 1);
}

// ------------------------------------------------------- Batch coalescing ---

TEST(EventFanoutTest, BacklogCoalescesIntoOneBatchPost) {
  GateSink sink;
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  ofmf.events().set_client_factory(sink.factory());
  ASSERT_TRUE(SubscribeWire(ofmf, "http://batch/events", {"Alert"}).ok());

  sink.Block();
  ofmf.events().Publish(MakeAlert("Fanout.1.0.Batch0"));
  // Wait until a worker grabbed the first (single-event) batch and is
  // stalled inside the sink, then pile up a backlog behind it.
  for (int spin = 0; sink.calls() < 1 && spin < 1000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sink.calls(), 1);
  for (int i = 1; i <= 8; ++i) {
    ofmf.events().Publish(MakeAlert("Fanout.1.0.Batch" + std::to_string(i)));
  }
  sink.Release();
  ASSERT_TRUE(ofmf.events().FlushDelivery(10000));

  // The backlog left as ONE coalesced POST: first body holds the stalled
  // single event, the second all eight, "Events" arrays concatenated.
  const std::vector<Json> bodies = sink.bodies();
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0].at("Events").as_array().size(), 1u);
  EXPECT_EQ(bodies[1].at("Events").as_array().size(), 8u);
  EXPECT_EQ(bodies[1].GetString("Name"), "OFMF Event Batch");
  const core::DeliverySnapshot snapshot = ofmf.events().CollectDelivery();
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_EQ(snapshot.coalesced, 8u);
  EXPECT_EQ(snapshot.delivered, 9u);
}

// ------------------------------------------------------------ SSE streams ---

TEST(EventFanoutTest, SseStreamDeliversFramesAndDetachesOnDisconnect) {
  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  http::TcpServer server;
  ASSERT_TRUE(server.Start(ofmf.Handler()).ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  const std::string request =
      "GET " + std::string(core::kEventServiceSse) + "?EventTypes=Alert HTTP/1.1\r\n"
      "Host: ofmf\r\nAccept: text/event-stream\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));

  // Read the streaming head (no Content-Length; connection stays open).
  std::string head;
  char byte = 0;
  while (head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    ASSERT_GT(n, 0) << "disconnected before the head completed";
    head.push_back(byte);
  }
  EXPECT_THAT(head, HasSubstr("200"));
  EXPECT_THAT(head, HasSubstr("text/event-stream"));

  // Wait for the stream subscriber to attach (the open hook runs on the
  // reactor loop), then publish.
  for (int spin = 0; ofmf.events().CollectDelivery().streams == 0 && spin < 1000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ofmf.events().CollectDelivery().streams, 1u);
  for (int i = 0; i < 3; ++i) {
    ofmf.events().Publish(MakeAlert("Fanout.1.0.Sse" + std::to_string(i)));
  }

  http::SseParser parser;
  std::vector<http::SseEvent> frames;
  std::vector<char> buffer(4096);
  while (frames.size() < 3) {
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    ASSERT_GT(n, 0) << "stream ended before 3 frames arrived";
    for (http::SseEvent& frame :
         parser.Feed(std::string_view(buffer.data(), static_cast<std::size_t>(n)))) {
      frames.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const Result<Json> record = json::Parse(frames[i].data);
    ASSERT_TRUE(record.ok()) << frames[i].data;
    const Json& entry = record->at("Events").as_array()[0];
    EXPECT_EQ(entry.GetString("MessageId"), "Fanout.1.0.Sse" + std::to_string(i));
    // The SSE id is the durable event sequence (resume tokens for clients).
    EXPECT_EQ(frames[i].id, entry.GetString("EventId"));
  }
  EXPECT_EQ(server.stats().streams_opened, 1u);

  // Peer disconnect detaches the subscriber: the reactor sees EOF, marks
  // the writer closed, and the engine drops the stream on its next pass.
  ::close(fd);
  bool detached = false;
  for (int spin = 0; spin < 1000 && !detached; ++spin) {
    ofmf.events().Publish(MakeAlert("Fanout.1.0.AfterClose"));
    (void)ofmf.events().FlushDelivery(1000);
    detached = ofmf.events().CollectDelivery().streams == 0;
    if (!detached) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(detached);
  server.Stop();
}

// ----------------------------------------- Durable cursor crash recovery ---

TEST(EventFanoutTest, DeliveryCursorSurvivesCrashWithoutRedeliveryOrLoss) {
  const std::string dir = ::testing::TempDir() + "ofmf_fanout_cursor";
  std::filesystem::remove_all(dir);
  store::StoreOptions options;
  options.dir = dir;

  GateSink sink;
  std::uint64_t acked_before_crash = 0;
  {
    core::OfmfService ofmf;
    ASSERT_TRUE(ofmf.Bootstrap().ok());
    DeliveryConfig config;
    config.retry_attempts = 1000;  // keep unacknowledged events queued
    config.base_backoff_ms = 1;
    config.max_backoff_ms = 8;
    config.breaker_cooldown_ms = 2;
    ofmf.events().ConfigureDelivery(config);
    ofmf.events().set_client_factory(sink.factory());

    auto persistent = store::PersistentStore::Open(options);
    ASSERT_TRUE(persistent.ok());
    auto faults = std::make_shared<FaultInjector>(4242);
    (*persistent)->set_fault_injector(faults);
    ASSERT_TRUE(ofmf.EnableDurability(std::move(*persistent)).ok());
    ASSERT_TRUE(SubscribeWire(ofmf, "http://cursor/events", {"Alert"}).ok());

    // Phase A: three events delivered and acknowledged; the cursor advances
    // through the journal.
    for (int i = 0; i < 3; ++i) {
      ofmf.events().Publish(MakeAlert("Cursor.1.0.A" + std::to_string(i)));
    }
    ASSERT_TRUE(ofmf.events().FlushDelivery(10000));
    ASSERT_EQ(sink.delivered_message_ids().size(), 3u);
    acked_before_crash = ofmf.events().CollectDelivery().subscribers[0].acked_sequence;
    ASSERT_GT(acked_before_crash, 0u);

    // Phase B: the destination goes dark; three more events stay queued,
    // journaled but unacknowledged. Commit everything to the platter.
    sink.set_fail(true);
    for (int i = 0; i < 3; ++i) {
      ofmf.events().Publish(MakeAlert("Cursor.1.0.B" + std::to_string(i)));
    }
    ASSERT_TRUE(ofmf.FlushStore().ok());

    // Power loss: the next journal commit crashes the store. The event
    // published after the flush never reaches disk — like any write a
    // crashed process never committed.
    faults->ArmNthCall("store.commit.crash", FaultKind::kCrash, 1);
    Event lost;
    lost.event_type = "StatusChange";  // does not match the subscription
    lost.message_id = "Cursor.1.0.Lost";
    lost.origin = core::kServiceRoot;
    ofmf.events().Publish(lost);
    EXPECT_FALSE(ofmf.FlushStore().ok());
    ASSERT_TRUE(ofmf.store()->crashed());
    sink.set_fail(false);  // let teardown drain without spinning
  }

  // Successor process: recover, adopt, and resume the subscription at its
  // cursor. Exactly the unacknowledged suffix (B0..B2) is redelivered — no
  // acknowledged A event twice, no journaled unacked event lost.
  GateSink successor_sink;
  core::OfmfService successor;
  ASSERT_TRUE(successor.Bootstrap().ok());
  DeliveryConfig config;
  config.base_backoff_ms = 1;
  successor.events().ConfigureDelivery(config);
  successor.events().set_client_factory(successor_sink.factory());
  auto reopened = store::PersistentStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto report = successor.EnableDurability(std::move(*reopened));
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_TRUE(successor.events().FlushDelivery(10000));

  const std::vector<std::string> redelivered = successor_sink.delivered_message_ids();
  EXPECT_THAT(redelivered, ::testing::ElementsAre("Cursor.1.0.B0", "Cursor.1.0.B1",
                                                  "Cursor.1.0.B2"));
  const core::DeliverySnapshot snapshot = successor.events().CollectDelivery();
  ASSERT_EQ(snapshot.subscribers.size(), 1u);
  EXPECT_EQ(snapshot.subscribers[0].acked_sequence, acked_before_crash + 3);
  EXPECT_EQ(snapshot.subscribers[0].queue_depth, 0u);
}

}  // namespace
}  // namespace ofmf
