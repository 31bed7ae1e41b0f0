// Redfish EventService: the OFMF's "subscription-based central repository"
// for state changes. Subscriptions are EventDestination resources; internal
// destinations ("ofmf-internal://<name>") queue in-process and are drained
// by embedded consumers like the Composability Manager, wire destinations
// are pushed asynchronously by the fault-isolated DeliveryEngine, and SSE
// streams ride the reactor's streaming responses. Tree mutations are
// translated into Redfish events automatically.
//
// Publish() is enqueue-only: it assigns a sequence, journals the record,
// appends to the retained event log and the matching queues, and returns.
// The network happens later, on DeliveryEngine workers — a stalled or dead
// subscriber can never stall a publisher (see delivery.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "json/value.hpp"
#include "ofmf/delivery.hpp"
#include "redfish/tree.hpp"
#include "store/store.hpp"

namespace ofmf::core {

struct Event {
  std::string event_type;  // "ResourceAdded", "Alert", ...
  std::string message_id;  // "ResourceEvent.1.0.ResourceCreated"
  std::string message;
  std::string origin;      // @odata.id of the affected resource
  json::Json oem;          // free-form extra payload

  json::Json ToJson(std::uint64_t sequence, SimTime timestamp) const;
};

class EventService {
 public:
  /// Published event records retained for crash recovery and late-cursor
  /// subscribers; the durable snapshot carries the same window.
  static constexpr std::size_t kEventLogRetention = 4096;
  /// Internal (in-process) destination queue bound; overflow drops oldest.
  static constexpr std::size_t kInternalQueueCapacity = 8192;

  EventService(redfish::ResourceTree& tree, SimClock& clock);
  ~EventService();

  Status Bootstrap();

  /// Creates an EventDestination from a POST body; returns its URI.
  /// Destination "ofmf-internal://<name>" queues internally; http(s)
  /// destinations are pushed by the delivery engine.
  Result<std::string> Subscribe(const json::Json& body);
  Status Unsubscribe(const std::string& subscription_uri);

  /// Rebuilds the subscription table from the EventDestination resources in
  /// the tree (after crash recovery). Wire subscriptions resume from their
  /// recovered delivery cursor (RestoreDurableEventState first) and the
  /// unacknowledged suffix of the retained event log is re-queued, so
  /// acknowledged events are not redelivered and unacknowledged ones are
  /// not lost. Undrained *internal* queues do not survive a restart — they
  /// are process memory. Returns the number of subscriptions adopted.
  std::size_t AdoptSubscriptionsFromTree();

  /// Publishes an event to every subscription whose EventTypes match.
  /// Enqueue-only: never touches the network, never blocks on a subscriber.
  /// Queue overflows surface as an "EventQueueFull" Alert meta-event (once
  /// per overflow episode, published outside the service lock).
  void Publish(const Event& event);

  /// Drains the internal queue of a subscription (by URI).
  Result<std::vector<json::Json>> Drain(const std::string& subscription_uri);

  /// Attaches a streaming (SSE) subscriber fed through the delivery engine.
  /// Returns its synthetic subscription URI. Streams are not durable.
  std::string AttachStream(http::StreamWriter writer,
                           std::vector<std::string> event_types);

  void set_client_factory(ClientFactory factory) {
    delivery_.set_client_factory(std::move(factory));
  }

  /// Tuning for the delivery engine; call before subscribers are wired.
  void ConfigureDelivery(const DeliveryConfig& config) { delivery_.Configure(config); }
  /// Blocks until every delivery queue is drained (tests/shutdown).
  bool FlushDelivery(int timeout_ms = 2000) { return delivery_.WaitIdle(timeout_ms); }

  /// Durability hooks (wired by the service when a store is attached).
  /// The journal sink runs under the service lock; the cursor sink is also
  /// installed as the engine's cursor sink (runs under the engine lock).
  /// Lock order everywhere: service -> engine -> store.
  using EventJournal = std::function<void(std::uint64_t sequence, const json::Json& record)>;
  using CursorJournal = std::function<void(const std::string& uri, std::uint64_t sequence)>;
  void set_event_journal(EventJournal journal);
  void set_cursor_journal(CursorJournal journal);

  /// Snapshot of the durable state (sequence counter, retained event log,
  /// per-subscription cursors) for compaction.
  store::DurableEventState ExportDurableEventState() const;
  /// Installs recovered durable state. Call before
  /// AdoptSubscriptionsFromTree so adopted subscriptions resume from their
  /// cursors.
  void RestoreDurableEventState(const store::DurableEventState& state);

  /// Live delivery telemetry (queue depths, drops, breaker states, lag).
  DeliverySnapshot CollectDelivery() const { return delivery_.Snapshot(); }

  /// Number of events ever published (delivered or not).
  std::uint64_t published_count() const { return sequence_.load(); }
  std::size_t subscription_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return subscriptions_.size();
  }

  /// Delivery failures (push destination unreachable after every retry).
  std::uint64_t delivery_failures() const { return delivery_.delivery_failures(); }
  /// Individual retry attempts that were needed (successful or not).
  std::uint64_t delivery_retries() const { return delivery_.delivery_retries(); }
  /// Events dropped to queue overflow (engine + internal queues).
  std::uint64_t dropped_events() const {
    return delivery_.dropped_events() + internal_dropped_.load();
  }
  /// Network sends observed while a Publish was on the calling thread's
  /// stack. The async contract says this stays zero (test-asserted).
  std::uint64_t publish_path_sends() const { return delivery_.publish_path_sends(); }
  /// Push attempts per batch per destination (the advertised
  /// DeliveryRetryAttempts); clamped to >= 1.
  void set_retry_attempts(int attempts) { delivery_.set_retry_attempts(attempts); }

 private:
  struct Subscription {
    std::string uri;
    std::string destination;
    std::vector<std::string> event_types;  // empty = all
    std::string context;
    bool internal = false;
    std::deque<json::Json> queue;  // internal destinations only
    std::uint64_t dropped = 0;
    bool overflow_episode = false;  // reset when the queue drains
  };

  void OnTreeChange(const redfish::ChangeEvent& change);
  /// Publishes the "EventQueueFull" Alert meta-events for fresh overflow
  /// episodes. Called with no locks held; a thread-local guard stops a
  /// meta-event from generating meta-meta-events.
  void PublishOverflowAlerts(const std::vector<DeliveryEngine::Overflow>& overflows);

  redfish::ResourceTree& tree_;
  SimClock& clock_;
  // Plain mutex: Publish never performs I/O and never re-enters (deliveries
  // run on engine workers), so no holder can block on a subscriber.
  mutable std::mutex mu_;
  std::map<std::string, Subscription> subscriptions_;
  std::size_t internal_count_ = 0;  // lets Publish skip the map walk entirely
  std::uint64_t next_id_ = 1;
  std::uint64_t next_stream_id_ = 1;
  std::atomic<std::uint64_t> sequence_{0};
  std::deque<DeliveryItemPtr> event_log_;  // retained window, oldest first
  std::map<std::string, std::uint64_t> recovered_cursors_;
  EventJournal event_journal_;
  CursorJournal cursor_journal_;
  std::atomic<std::uint64_t> internal_dropped_{0};
  std::uint64_t tree_token_ = 0;
  DeliveryEngine delivery_;
};

}  // namespace ofmf::core
