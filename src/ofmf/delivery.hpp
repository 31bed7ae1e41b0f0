// Fault-isolated asynchronous event delivery (ROADMAP item 4, FAODEL's
// OpBox idiom: distributed protocols as resumable state machines, never a
// blocking RPC on the publish path).
//
// One DeliveryEngine fans events out to N subscribers, each driven by its
// own resumable state machine:
//
//     kIdle ──enqueue──▶ kQueued ──worker──▶ kInFlight ──ok──▶ kIdle/kQueued
//                           ▲                    │fail
//                           │                    ▼
//                           └──due timer──── kWaiting (full-jitter backoff /
//                                                     breaker cooldown)
//
// Invariants that make it fault-isolated:
//   * Publish-side Broadcast() only appends to per-subscriber bounded
//     queues under the engine mutex — it never touches the network and
//     never waits on a subscriber (enforced by the PublishPathMarker
//     counter the fan-out tests assert on).
//   * One batch in flight per subscriber; a stalled endpoint occupies at
//     most one worker slot while its queue absorbs (and eventually
//     coalesces/drops) the backlog.
//   * Overflow policy is drop-oldest: the newest events survive, drops are
//     counted per subscriber and surfaced once per overflow episode through
//     the overflow sink (the EventService publishes the Redfish
//     "EventQueueFull" meta-event from it).
//   * Retries use full-jitter exponential backoff (http::BackoffCapMs, the
//     http::RetryingClient policy) and a per-subscriber CircuitBreaker: once
//     open, a dead endpoint costs one probe per cooldown instead of hot
//     retries.
//   * Items stay queued until acknowledged (2xx/3xx), then the durable
//     cursor advances through the cursor sink — crash recovery replays
//     exactly the unacknowledged suffix.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "http/server.hpp"
#include "json/value.hpp"
#include "ofmf/breaker.hpp"

namespace ofmf::core {

using ClientFactory =
    std::function<std::unique_ptr<http::HttpClient>(const std::string& destination)>;

/// Default ClientFactory for real subscriber endpoints: a destination of the
/// form "http://127.0.0.1:<port>/..." (or localhost) gets a thin adapter
/// over a SHARED keep-alive-pooled TcpClient per port — every batch POST to
/// that endpoint reuses warm pooled connections instead of opening a fresh
/// one per batch, and subscribers pointed at the same endpoint share the
/// pool. Non-loopback or unparseable destinations yield nullptr, preserving
/// the no-transport behaviour tests rely on for synthetic hosts.
ClientFactory DefaultWireClientFactory();

struct DeliveryConfig {
  /// Per-subscriber queue bound; overflow drops the oldest unsent event.
  std::size_t queue_capacity = 1024;
  /// Events coalesced into one POST (their "Events" arrays concatenate).
  std::size_t batch_max_events = 16;
  /// Attempts per batch before it is dropped and the cursor advances.
  int retry_attempts = 3;
  /// Full-jitter backoff: retry k waits Uniform(0, http::BackoffCapMs(...)).
  int base_backoff_ms = 5;
  int max_backoff_ms = 250;
  /// Pause between probe wakeups while a subscriber's breaker rejects.
  int breaker_cooldown_ms = 20;
  /// Delivery worker threads (spawned lazily with the first subscriber).
  std::size_t workers = 2;
  /// A stream (SSE) subscriber buffering more than this in the transport
  /// is paused; its queue keeps absorbing with drop-oldest.
  std::size_t stream_max_buffered_bytes = 256 * 1024;
  /// Per-subscriber breaker tuning.
  BreakerConfig breaker{};
  std::uint64_t jitter_seed = 0x0FABull;
};

struct SubscriberSnapshot {
  std::string uri;
  std::string destination;  // empty for streams
  bool stream = false;
  std::size_t queue_depth = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;  // events acknowledged
  std::uint64_t batches = 0;    // POSTs / stream flushes that succeeded
  std::uint64_t coalesced = 0;  // events delivered in multi-event batches
  std::uint64_t dropped = 0;    // overflow + retry-exhausted drops
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;   // events in retry-exhausted batches
  std::uint64_t acked_sequence = 0;
  std::uint64_t cursor_lag = 0;  // last broadcast sequence - acked
  BreakerState breaker_state = BreakerState::kClosed;
  BreakerStats breaker_stats{};
};

struct DeliverySnapshot {
  std::vector<SubscriberSnapshot> subscribers;
  std::uint64_t last_sequence = 0;
  std::size_t total_queued = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t delivered = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  std::uint64_t max_cursor_lag = 0;
  std::size_t breakers_open = 0;
  std::size_t streams = 0;
};

/// One published event, shared immutably by every subscriber queue it lands
/// in. `record` is the full single-event Redfish Event document (its
/// "Events" array holds one entry); batching concatenates those arrays.
struct DeliveryItem {
  DeliveryItem(std::uint64_t sequence, std::string event_type, json::Json record,
               std::uint64_t trace_id = 0);

  const std::uint64_t sequence;
  const std::string event_type;
  const json::Json record;
  /// Trace that published this event (0 = unsampled). Batch POSTs carry the
  /// first record's trace as X-Trace-Id so a webhook receiver can tie the
  /// delivery back to the originating request's trace.
  const std::uint64_t trace_id;

  /// The SSE frame for this event, serialized once on first use.
  const std::string& sse_frame() const;

  /// The full record serialized once on first use — the wire body for a
  /// batch of one. Shared across every subscriber that delivers this event.
  const std::string& record_json() const;

  /// The record's "Events" entries serialized once on first use, joined
  /// with commas — ready to splice into a batch document's Events array.
  const std::string& entries_json() const;

 private:
  mutable std::once_flag frame_once_;
  mutable std::string frame_;
  mutable std::once_flag record_json_once_;
  mutable std::string record_json_;
  mutable std::once_flag entries_once_;
  mutable std::string entries_;
};

using DeliveryItemPtr = std::shared_ptr<const DeliveryItem>;

class DeliveryEngine {
 public:
  /// Called after a batch is acknowledged: every sequence <= `sequence` for
  /// `uri` is delivered. Invoked under the engine mutex (lock order:
  /// engine before store — the sink may journal but must not re-enter the
  /// engine or the EventService).
  using CursorSink = std::function<void(const std::string& uri, std::uint64_t sequence)>;

  /// An overflow notice: `dropped` is the subscriber's cumulative drop
  /// count. Reported through the overflow sink on the dispatcher thread,
  /// with no engine lock held (first drop per overflow episode only).
  struct Overflow {
    std::string uri;
    std::uint64_t dropped = 0;
  };

  /// Invoked by the dispatcher, off-lock, when a subscriber queue starts an
  /// overflow episode. May publish meta-events (re-entering the EventService
  /// is safe — nothing of the engine is held).
  using OverflowSink = std::function<void(const Overflow& overflow)>;

  /// RAII thread marker the EventService holds across Publish. Any network
  /// send the engine performs while the current thread is marked counts
  /// against publish_path_sends() — the "Publish performs zero network
  /// syscalls" assertion.
  class PublishPathMarker {
   public:
    PublishPathMarker() { ++depth(); }
    ~PublishPathMarker() { --depth(); }
    PublishPathMarker(const PublishPathMarker&) = delete;
    PublishPathMarker& operator=(const PublishPathMarker&) = delete;
    static bool active() { return depth() > 0; }

   private:
    static int& depth() {
      thread_local int d = 0;
      return d;
    }
  };

  DeliveryEngine();
  ~DeliveryEngine();
  DeliveryEngine(const DeliveryEngine&) = delete;
  DeliveryEngine& operator=(const DeliveryEngine&) = delete;

  /// Replaces the tuning knobs. Applies to subscribers added afterwards
  /// (existing breakers keep their config); call before wiring subscribers.
  void Configure(const DeliveryConfig& config);
  DeliveryConfig config() const;

  void set_client_factory(ClientFactory factory);
  void set_cursor_sink(CursorSink sink);
  void set_overflow_sink(OverflowSink sink);
  /// Clamps below 1 to 1 (at least one attempt per batch).
  void set_retry_attempts(int attempts);

  /// Registers an HTTP push subscriber resuming from `acked_sequence`.
  void AddHttpSubscriber(const std::string& uri, const std::string& destination,
                         std::vector<std::string> event_types,
                         std::uint64_t acked_sequence);
  /// Registers a streaming (SSE) subscriber. Streams are not durable: no
  /// cursor is journaled, and the subscriber vanishes with its connection.
  void AddStreamSubscriber(const std::string& uri, http::StreamWriter writer,
                           std::vector<std::string> event_types);
  bool RemoveSubscriber(const std::string& uri);
  /// Drops every subscriber (recovery re-adoption).
  void Clear();

  /// Hands `item` to the dispatcher: O(1) for the caller — one push under
  /// the intake lock, which no delivery worker ever touches. The dispatcher
  /// thread fans the item out to every matching subscriber queue; overflow
  /// episodes surface through the overflow sink. Never blocks on the
  /// network, never scales with the subscriber count.
  void Broadcast(const DeliveryItemPtr& item);

  /// Seeds a subscriber's queue with a recovered backlog (events published
  /// before a crash that the destination never acknowledged). Items must be
  /// in sequence order.
  void Seed(const std::string& uri, std::vector<DeliveryItemPtr> backlog);

  /// Blocks until every queue is empty and nothing is in flight (or the
  /// timeout expires). Test/shutdown helper.
  bool WaitIdle(int timeout_ms);

  /// Joins the dispatcher and every worker. Owners whose callbacks (cursor,
  /// overflow, client factory) touch their own state must call this before
  /// that state is torn down; the destructor also stops.
  void Stop() { StopWorkers(); }

  DeliverySnapshot Snapshot() const;
  std::size_t subscriber_count() const;
  std::uint64_t delivery_failures() const {
    return delivery_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivery_retries() const {
    return delivery_retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }
  std::uint64_t publish_path_sends() const {
    return publish_path_sends_.load(std::memory_order_relaxed);
  }

 private:
  /// The per-subscriber resumable state machine (see file header).
  enum class Phase { kIdle, kQueued, kInFlight, kWaiting };

  struct Sub {
    std::string uri;
    std::string destination;
    std::vector<std::string> event_types;  // empty = all
    bool is_stream = false;
    http::StreamWriter writer;              // streams only
    std::unique_ptr<http::HttpClient> client;  // cached: keep-alive reuse
    std::deque<DeliveryItemPtr> queue;
    std::size_t in_flight_items = 0;  // head items a worker is sending
    Phase phase = Phase::kIdle;
    int attempts = 0;  // failed attempts for the head batch
    std::chrono::steady_clock::time_point due{};
    std::uint64_t acked_sequence = 0;
    bool overflow_episode = false;
    bool removed = false;
    std::uint64_t enqueued = 0, delivered = 0, batches = 0, coalesced = 0,
                  dropped = 0, retries = 0, failures = 0;
    std::unique_ptr<CircuitBreaker> breaker;
  };
  using SubPtr = std::shared_ptr<Sub>;

  void EnsureStartedLocked();
  void StopWorkers();
  void WorkerMain();
  /// Drains the intake queue and fans each round out to subscriber queues.
  void DispatcherMain();
  /// Moves subscribers whose wait expired back onto the ready deque.
  void PromoteDueLocked(std::chrono::steady_clock::time_point now);
  std::chrono::steady_clock::time_point NextDueLocked() const;
  void MakeReadyLocked(const SubPtr& sub);
  void WaitLocked(const SubPtr& sub, std::chrono::steady_clock::time_point due);
  bool MatchesLocked(const Sub& sub, const DeliveryItem& item) const;
  /// Enqueue with drop-oldest overflow; returns true on a fresh overflow
  /// episode (caller reports it).
  bool EnqueueLocked(Sub& sub, const DeliveryItemPtr& item);
  void FinishBatchLocked(Sub& sub, bool delivered_ok, std::size_t batch_n);
  void DeliverHttp(std::unique_lock<std::mutex>& lock, const SubPtr& sub);
  void DeliverStreamLocked(const SubPtr& sub);
  bool IdleLocked() const;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  DeliveryConfig config_;
  ClientFactory factory_;
  CursorSink cursor_sink_;
  OverflowSink overflow_sink_;
  std::map<std::string, SubPtr> subs_;
  std::deque<SubPtr> ready_;
  std::vector<SubPtr> waiting_;  // kWaiting subs; scanned for due times
  std::vector<std::thread> workers_;
  std::thread dispatcher_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  /// Publish-side intake, decoupled from mu_ so a Broadcast never queues
  /// behind worker bookkeeping. Guarded by intake_mu_; intake_depth_ is the
  /// atomic mirror the idle check reads under mu_.
  std::mutex intake_mu_;
  std::condition_variable intake_cv_;
  std::deque<DeliveryItemPtr> intake_;
  std::atomic<std::size_t> intake_depth_{0};
  std::atomic<std::size_t> sub_count_{0};
  std::size_t in_flight_ = 0;
  std::size_t queued_items_ = 0;  // sum of all queue sizes (O(1) IdleLocked)
  std::uint64_t last_sequence_ = 0;
  Rng rng_{0x0FABull};

  /// Dispatcher fan-out rounds waiting on mu_. Workers reacquire the lock
  /// thousands of times per second around tiny sends; without a priority
  /// hint the dispatcher can lose the barging race and delivery lag grows.
  /// Workers spin-yield at their relock points while this is nonzero.
  std::atomic<int> broadcast_waiting_{0};

  std::atomic<int> retry_attempts_{3};
  std::atomic<std::uint64_t> delivery_failures_{0};
  std::atomic<std::uint64_t> delivery_retries_{0};
  std::atomic<std::uint64_t> dropped_events_{0};
  std::atomic<std::uint64_t> publish_path_sends_{0};
};

}  // namespace ofmf::core
