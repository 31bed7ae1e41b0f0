#include "ofmf/delivery.hpp"

#include <algorithm>
#include <map>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "http/resilience.hpp"
#include "http/sse.hpp"
#include "http/uri.hpp"
#include "json/serialize.hpp"

namespace ofmf::core {

namespace {

/// Adapter the default wire factory hands out: rewrites the full-URL
/// destination target ("http://127.0.0.1:9001/events") into the origin-form
/// target TcpClient speaks, and delegates to the shared pooled client.
class PooledEndpointClient : public http::HttpClient {
 public:
  PooledEndpointClient(std::shared_ptr<http::TcpClient> inner, std::string url_prefix)
      : inner_(std::move(inner)), url_prefix_(std::move(url_prefix)) {}

  Result<http::Response> Send(const http::Request& request) override {
    http::Request wire = request;
    std::string target = request.target.empty() ? request.path : request.target;
    if (strings::StartsWith(target, url_prefix_)) {
      target = target.substr(url_prefix_.size());
    }
    if (target.empty() || target.front() != '/') target.insert(0, "/");
    const http::ParsedUri parsed = http::ParseUriTarget(target);
    wire.target = std::move(target);
    wire.path = parsed.path;
    wire.query = parsed.query;
    return inner_->Send(wire);
  }

 private:
  std::shared_ptr<http::TcpClient> inner_;
  std::string url_prefix_;  // "http://<host>:<port>"
};

/// One pooled TcpClient per loopback port, shared across every subscriber
/// delivering to that endpoint (weak registry: the pool dies with its last
/// subscriber instead of accreting sockets for retired ports).
std::shared_ptr<http::TcpClient> SharedClientForPort(std::uint16_t port) {
  static std::mutex registry_mu;
  static std::map<std::uint16_t, std::weak_ptr<http::TcpClient>> registry;
  std::lock_guard<std::mutex> lock(registry_mu);
  std::weak_ptr<http::TcpClient>& slot = registry[port];
  if (auto existing = slot.lock()) return existing;
  auto created = std::make_shared<http::TcpClient>(port, 5000);
  slot = created;
  return created;
}

/// Placeholder spliced out of the serialized batch envelope and replaced
/// with the items' pre-serialized Events entries. Alphanumeric so the
/// serializer emits it verbatim (no escaping).
constexpr const char* kSpliceToken = "__ofmf_batch_splice__";

/// Coalesces a batch into one wire document: the first record's envelope
/// with every item's "Events" array concatenated. A batch of one posts the
/// original record unchanged, so single-event delivery is byte-identical to
/// the pre-batching wire format. Events are serialized once per publish
/// (cached on the shared DeliveryItem) and spliced as strings here, so the
/// per-subscriber cost of a fan-out is a memcpy, not a JSON deep copy.
std::string BuildBatchBody(const std::vector<DeliveryItemPtr>& batch) {
  if (batch.size() == 1) return batch.front()->record_json();
  json::Json envelope = batch.front()->record;
  envelope.as_object().Set("Events", json::Json::Arr({kSpliceToken}));
  envelope.as_object().Set("Id", std::to_string(batch.back()->sequence));
  envelope.as_object().Set("Name", "OFMF Event Batch");
  std::string shell = json::Serialize(envelope);

  std::string joined;
  std::size_t reserve = 0;
  for (const DeliveryItemPtr& item : batch) reserve += item->entries_json().size() + 1;
  joined.reserve(reserve);
  for (const DeliveryItemPtr& item : batch) {
    const std::string& entries = item->entries_json();
    if (entries.empty()) continue;
    if (!joined.empty()) joined += ',';
    joined += entries;
  }
  const std::string token = '"' + std::string(kSpliceToken) + '"';
  const std::size_t at = shell.find(token);
  if (at != std::string::npos) shell.replace(at, token.size(), joined);
  return shell;
}

}  // namespace

DeliveryItem::DeliveryItem(std::uint64_t sequence_in, std::string event_type_in,
                           json::Json record_in, std::uint64_t trace_id_in)
    : sequence(sequence_in),
      event_type(std::move(event_type_in)),
      record(std::move(record_in)),
      trace_id(trace_id_in) {}

const std::string& DeliveryItem::sse_frame() const {
  std::call_once(frame_once_, [this] {
    frame_ = http::FormatSseFrame(sequence, record_json());
  });
  return frame_;
}

const std::string& DeliveryItem::record_json() const {
  std::call_once(record_json_once_, [this] { record_json_ = json::Serialize(record); });
  return record_json_;
}

const std::string& DeliveryItem::entries_json() const {
  std::call_once(entries_once_, [this] {
    const json::Json& list = record.at("Events");
    if (!list.is_array()) return;
    for (const json::Json& entry : list.as_array()) {
      if (!entries_.empty()) entries_ += ',';
      entries_ += json::Serialize(entry);
    }
  });
  return entries_;
}

DeliveryEngine::DeliveryEngine() = default;

DeliveryEngine::~DeliveryEngine() { StopWorkers(); }

void DeliveryEngine::Configure(const DeliveryConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.batch_max_events == 0) config_.batch_max_events = 1;
  if (config_.workers == 0) config_.workers = 1;
  rng_ = Rng(config_.jitter_seed);
  retry_attempts_.store(std::max(1, config_.retry_attempts), std::memory_order_relaxed);
}

DeliveryConfig DeliveryEngine::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

ClientFactory DefaultWireClientFactory() {
  return [](const std::string& destination) -> std::unique_ptr<http::HttpClient> {
    for (const char* scheme : {"http://127.0.0.1:", "http://localhost:"}) {
      if (!strings::StartsWith(destination, scheme)) continue;
      const std::size_t port_begin = std::string(scheme).size();
      std::size_t port_end = destination.find('/', port_begin);
      if (port_end == std::string::npos) port_end = destination.size();
      const std::string port_text =
          destination.substr(port_begin, port_end - port_begin);
      if (port_text.empty() || port_text.size() > 5 ||
          !strings::IsDigits(port_text)) {
        return nullptr;
      }
      const unsigned long port = std::stoul(port_text);
      if (port == 0 || port > 65535) return nullptr;
      return std::make_unique<PooledEndpointClient>(
          SharedClientForPort(static_cast<std::uint16_t>(port)),
          destination.substr(0, port_end));
    }
    return nullptr;
  };
}

void DeliveryEngine::set_client_factory(ClientFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factory_ = std::move(factory);
  // Cached per-subscriber clients came from the previous factory; drop the
  // idle ones so the next batch reconnects through the new one. In-flight
  // clients are owned by their worker until the batch finishes.
  for (auto& [uri, sub] : subs_) {
    if (sub->phase != Phase::kInFlight) sub->client.reset();
  }
}

void DeliveryEngine::set_cursor_sink(CursorSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  cursor_sink_ = std::move(sink);
}

void DeliveryEngine::set_overflow_sink(OverflowSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  overflow_sink_ = std::move(sink);
}

void DeliveryEngine::set_retry_attempts(int attempts) {
  retry_attempts_.store(std::max(1, attempts), std::memory_order_relaxed);
}

void DeliveryEngine::EnsureStartedLocked() {
  if (started_) return;
  started_ = true;
  stopping_.store(false);
  dispatcher_ = std::thread([this] { DispatcherMain(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

void DeliveryEngine::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_.store(true);
  }
  {
    // The dispatcher checks stopping_ under intake_mu_; fence so the store
    // is visible to a dispatcher mid-wait.
    std::lock_guard<std::mutex> lock(intake_mu_);
  }
  work_cv_.notify_all();
  intake_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  stopping_.store(false);
}

void DeliveryEngine::AddHttpSubscriber(const std::string& uri,
                                       const std::string& destination,
                                       std::vector<std::string> event_types,
                                       std::uint64_t acked_sequence) {
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = subs_.find(uri);
  if (existing != subs_.end()) {
    existing->second->removed = true;
    subs_.erase(existing);
  }
  auto sub = std::make_shared<Sub>();
  sub->uri = uri;
  sub->destination = destination;
  sub->event_types = std::move(event_types);
  sub->acked_sequence = acked_sequence;
  sub->breaker = std::make_unique<CircuitBreaker>(config_.breaker);
  subs_.emplace(uri, std::move(sub));
  sub_count_.store(subs_.size(), std::memory_order_relaxed);
  EnsureStartedLocked();
}

void DeliveryEngine::AddStreamSubscriber(const std::string& uri,
                                         http::StreamWriter writer,
                                         std::vector<std::string> event_types) {
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = subs_.find(uri);
  if (existing != subs_.end()) {
    existing->second->removed = true;
    subs_.erase(existing);
  }
  auto sub = std::make_shared<Sub>();
  sub->uri = uri;
  sub->is_stream = true;
  sub->writer = std::move(writer);
  sub->event_types = std::move(event_types);
  sub->acked_sequence = last_sequence_;
  sub->breaker = std::make_unique<CircuitBreaker>(config_.breaker);
  subs_.emplace(uri, std::move(sub));
  sub_count_.store(subs_.size(), std::memory_order_relaxed);
  EnsureStartedLocked();
}

bool DeliveryEngine::RemoveSubscriber(const std::string& uri) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(uri);
  if (it == subs_.end()) return false;
  it->second->removed = true;
  queued_items_ -= it->second->queue.size();
  it->second->queue.clear();
  subs_.erase(it);
  sub_count_.store(subs_.size(), std::memory_order_relaxed);
  if (IdleLocked()) idle_cv_.notify_all();
  return true;
}

void DeliveryEngine::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [uri, sub] : subs_) {
    sub->removed = true;
    queued_items_ -= sub->queue.size();
    sub->queue.clear();
  }
  subs_.clear();
  sub_count_.store(0, std::memory_order_relaxed);
  if (IdleLocked()) idle_cv_.notify_all();
}

bool DeliveryEngine::MatchesLocked(const Sub& sub, const DeliveryItem& item) const {
  if (sub.event_types.empty()) return true;
  return std::find(sub.event_types.begin(), sub.event_types.end(), item.event_type) !=
         sub.event_types.end();
}

bool DeliveryEngine::EnqueueLocked(Sub& sub, const DeliveryItemPtr& item) {
  ++sub.enqueued;
  if (sub.queue.size() < config_.queue_capacity) {
    sub.queue.push_back(item);
    ++queued_items_;
    return false;
  }
  // Drop-oldest overflow: the newest events survive. Never drop an item a
  // worker is currently sending (the head `in_flight_items` entries) — if
  // the whole queue is in flight, the incoming event is the drop instead.
  ++sub.dropped;
  dropped_events_.fetch_add(1, std::memory_order_relaxed);
  if (sub.queue.size() > sub.in_flight_items) {
    sub.queue.erase(sub.queue.begin() +
                    static_cast<std::ptrdiff_t>(sub.in_flight_items));
    sub.queue.push_back(item);
  }
  if (!sub.overflow_episode) {
    sub.overflow_episode = true;
    return true;
  }
  return false;
}

void DeliveryEngine::Broadcast(const DeliveryItemPtr& item) {
  // O(1) and independent of mu_: the publisher never queues behind worker
  // bookkeeping or pays the per-subscriber fan-out loop. With no push or
  // stream subscribers there is no dispatcher either — drop the item here
  // (the EventService keeps its own log for late joiners and recovery).
  if (sub_count_.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard<std::mutex> lock(intake_mu_);
    // Depth first: WaitIdle reads it without intake_mu_, and must never see
    // a pushed item with a zero depth.
    intake_depth_.fetch_add(1, std::memory_order_relaxed);
    intake_.push_back(item);
  }
  intake_cv_.notify_one();
}

void DeliveryEngine::DispatcherMain() {
  std::unique_lock<std::mutex> intake_lock(intake_mu_);
  while (true) {
    intake_cv_.wait(intake_lock,
                    [this] { return stopping_.load() || !intake_.empty(); });
    if (stopping_.load()) return;
    // Take the whole round: fanning N pending items out in one pass over
    // the subscriber map amortizes the map walk under publish bursts.
    std::vector<DeliveryItemPtr> round(intake_.begin(), intake_.end());
    intake_.clear();
    intake_lock.unlock();

    std::vector<Overflow> overflows;
    OverflowSink sink;
    {
      broadcast_waiting_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      broadcast_waiting_.fetch_sub(1, std::memory_order_relaxed);
      for (const DeliveryItemPtr& item : round) {
        last_sequence_ = std::max(last_sequence_, item->sequence);
      }
      for (auto& [uri, sub] : subs_) {
        bool fresh_episode = false;
        for (const DeliveryItemPtr& item : round) {
          if (!MatchesLocked(*sub, *item)) continue;
          if (EnqueueLocked(*sub, item)) fresh_episode = true;
        }
        if (fresh_episode) overflows.push_back({uri, sub->dropped});
        if (!sub->queue.empty() && sub->phase == Phase::kIdle) MakeReadyLocked(sub);
      }
      intake_depth_.fetch_sub(round.size(), std::memory_order_relaxed);
      sink = overflow_sink_;
      if (IdleLocked()) idle_cv_.notify_all();
    }
    // Meta-events fire here with nothing of the engine held, so the sink
    // may re-enter Publish/Broadcast freely.
    if (sink) {
      for (const Overflow& overflow : overflows) sink(overflow);
    }
    intake_lock.lock();
  }
}

void DeliveryEngine::Seed(const std::string& uri,
                          std::vector<DeliveryItemPtr> backlog) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(uri);
  if (it == subs_.end()) return;
  Sub& sub = *it->second;
  for (DeliveryItemPtr& item : backlog) {
    last_sequence_ = std::max(last_sequence_, item->sequence);
    (void)EnqueueLocked(sub, item);
  }
  if (!sub.queue.empty() && sub.phase == Phase::kIdle) MakeReadyLocked(it->second);
}

void DeliveryEngine::MakeReadyLocked(const SubPtr& sub) {
  sub->phase = Phase::kQueued;
  ready_.push_back(sub);
  work_cv_.notify_one();
}

void DeliveryEngine::WaitLocked(const SubPtr& sub,
                                std::chrono::steady_clock::time_point due) {
  sub->phase = Phase::kWaiting;
  sub->due = due;
  waiting_.push_back(sub);
  // A sleeping worker must re-evaluate: someone has to hold the timed wait.
  work_cv_.notify_one();
}

void DeliveryEngine::PromoteDueLocked(std::chrono::steady_clock::time_point now) {
  std::size_t promoted = 0;
  for (std::size_t i = 0; i < waiting_.size();) {
    SubPtr& sub = waiting_[i];
    if (sub->removed) {
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (sub->due <= now) {
      MakeReadyLocked(sub);
      ++promoted;
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  if (promoted > 1) work_cv_.notify_all();
}

std::chrono::steady_clock::time_point DeliveryEngine::NextDueLocked() const {
  auto next = std::chrono::steady_clock::time_point::max();
  for (const SubPtr& sub : waiting_) next = std::min(next, sub->due);
  return next;
}

bool DeliveryEngine::IdleLocked() const {
  // queued_items_ mirrors the sum of all subscriber queue sizes so this
  // check — made after every batch — is O(1) instead of a fleet scan.
  // Items still in intake count as work: they have not been fanned out yet.
  return in_flight_ == 0 && ready_.empty() && queued_items_ == 0 &&
         intake_depth_.load(std::memory_order_relaxed) == 0;
}

bool DeliveryEngine::WaitIdle(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return IdleLocked(); });
}

void DeliveryEngine::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    PromoteDueLocked(std::chrono::steady_clock::now());
    if (stopping_) return;
    if (ready_.empty()) {
      if (waiting_.empty()) {
        work_cv_.wait(lock);
      } else {
        work_cv_.wait_until(lock, NextDueLocked());
      }
      continue;
    }
    SubPtr sub = ready_.front();
    ready_.pop_front();
    if (sub->removed || sub->queue.empty()) {
      sub->phase = Phase::kIdle;
      if (IdleLocked()) idle_cv_.notify_all();
      continue;
    }
    sub->phase = Phase::kInFlight;
    ++in_flight_;
    if (sub->is_stream) {
      DeliverStreamLocked(sub);
    } else {
      DeliverHttp(lock, sub);
    }
    --in_flight_;
    if (IdleLocked()) idle_cv_.notify_all();
  }
}

void DeliveryEngine::DeliverHttp(std::unique_lock<std::mutex>& lock, const SubPtr& sub) {
  const auto now = std::chrono::steady_clock::now();
  if (!sub->breaker->Allow()) {
    // Open breaker: this wakeup burns one rejected call of the count-based
    // cooldown budget, so a dead endpoint costs one probe per cooldown
    // instead of hot retries.
    WaitLocked(sub, now + std::chrono::milliseconds(config_.breaker_cooldown_ms));
    return;
  }
  const std::size_t batch_n = std::min(sub->queue.size(), config_.batch_max_events);
  sub->in_flight_items = batch_n;
  const std::vector<DeliveryItemPtr> batch(sub->queue.begin(),
                                           sub->queue.begin() + batch_n);
  if (!sub->client && factory_) sub->client = factory_(sub->destination);
  http::HttpClient* client = sub->client.get();
  const std::string destination = sub->destination;
  if (sub->attempts > 0) {
    ++sub->retries;
    delivery_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  bool delivered_ok = false;
  if (client != nullptr) {
    lock.unlock();
    // Everything from here — including coalescing the batch into one wire
    // document — runs off-lock; only shared_ptr copies were taken under it.
    http::Request request = http::MakeRequest(http::Method::kPost, destination);
    request.body = BuildBatchBody(batch);
    request.headers.Set("Content-Type", "application/json");
    // Propagate the publishing request's trace: the first record's trace id
    // wins for the whole batch (one header, many records — good enough to
    // tie a webhook POST back to the request that caused it).
    if (!batch.empty() && batch.front()->trace_id != 0) {
      request.headers.Set(trace::kTraceIdHeader,
                          trace::IdToHex(batch.front()->trace_id));
    }
    // The network happens HERE — on an engine worker with no engine or
    // EventService lock held. The marker counter proves the publish path
    // never reaches this line.
    if (PublishPathMarker::active()) {
      publish_path_sends_.fetch_add(1, std::memory_order_relaxed);
    }
    const Result<http::Response> response = client->Send(request);
    delivered_ok = response.ok() && response->status < 400;
    // Dispatcher priority: a waiting fan-out round gets the lock before
    // this worker barges back in for its (deferrable) bookkeeping.
    while (broadcast_waiting_.load(std::memory_order_relaxed) > 0) {
      std::this_thread::yield();
    }
    lock.lock();
  }
  sub->in_flight_items = 0;
  if (sub->removed) return;
  FinishBatchLocked(*sub, delivered_ok, batch_n);
}

void DeliveryEngine::FinishBatchLocked(Sub& sub, bool delivered_ok,
                                       std::size_t batch_n) {
  const auto now = std::chrono::steady_clock::now();
  SubPtr self = subs_.count(sub.uri) ? subs_[sub.uri] : nullptr;
  auto resume = [&] {
    if (sub.queue.empty()) {
      sub.phase = Phase::kIdle;
      sub.overflow_episode = false;
    } else if (self != nullptr) {
      MakeReadyLocked(self);
    } else {
      sub.phase = Phase::kIdle;
    }
  };
  auto advance_cursor = [&](std::uint64_t last) {
    if (last > sub.acked_sequence) {
      sub.acked_sequence = last;
      if (cursor_sink_ && !sub.is_stream) cursor_sink_(sub.uri, sub.acked_sequence);
    }
  };
  auto pop_batch = [&]() -> std::uint64_t {
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < batch_n && !sub.queue.empty(); ++i) {
      last = sub.queue.front()->sequence;
      sub.queue.pop_front();
      --queued_items_;
    }
    return last;
  };

  if (delivered_ok) {
    sub.breaker->RecordSuccess();
    advance_cursor(pop_batch());
    sub.attempts = 0;
    sub.delivered += batch_n;
    ++sub.batches;
    if (batch_n > 1) sub.coalesced += batch_n;
    resume();
    return;
  }

  sub.breaker->RecordFailure();
  ++sub.attempts;
  if (sub.attempts >= retry_attempts_.load(std::memory_order_relaxed)) {
    // Retry budget exhausted: bounded loss. The batch is dropped (counted
    // as failures) and the cursor advances past it — the cursor is the
    // delivery *frontier*, recording what will never be retried, so crash
    // recovery does not resurrect events delivery already gave up on.
    advance_cursor(pop_batch());
    sub.attempts = 0;
    sub.failures += batch_n;
    delivery_failures_.fetch_add(batch_n, std::memory_order_relaxed);
    OFMF_WARN << "event delivery to " << sub.destination << " failed after "
              << retry_attempts_.load(std::memory_order_relaxed)
              << " attempts; dropping batch of " << batch_n << " (subscription "
              << sub.uri << ")";
    resume();
    return;
  }
  const double cap =
      http::BackoffCapMs(config_.base_backoff_ms, config_.max_backoff_ms, sub.attempts);
  const double wait_ms = rng_.Uniform(0.0, cap);
  if (self != nullptr) {
    WaitLocked(self, now + std::chrono::microseconds(
                         static_cast<std::int64_t>(wait_ms * 1000.0)));
  } else {
    sub.phase = Phase::kIdle;
  }
}

void DeliveryEngine::DeliverStreamLocked(const SubPtr& sub) {
  Sub& s = *sub;
  auto detach = [&] {
    s.removed = true;
    queued_items_ -= s.queue.size();
    s.queue.clear();
    s.phase = Phase::kIdle;
    subs_.erase(s.uri);
    sub_count_.store(subs_.size(), std::memory_order_relaxed);
  };
  if (!s.writer.valid() || s.writer.closed()) {
    detach();
    return;
  }
  if (s.writer.buffered_bytes() > config_.stream_max_buffered_bytes) {
    // Slow consumer: let the transport drain. The queue keeps absorbing
    // (and drop-oldest coalescing) in the meantime — backpressure never
    // propagates to the publisher.
    WaitLocked(sub, std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
    return;
  }
  std::size_t written = 0;
  std::uint64_t last = 0;
  while (!s.queue.empty() && written < config_.batch_max_events) {
    const DeliveryItemPtr item = s.queue.front();
    if (!s.writer.Write(item->sse_frame())) {
      detach();
      return;
    }
    last = item->sequence;
    s.queue.pop_front();
    --queued_items_;
    ++written;
  }
  if (written > 0) {
    s.delivered += written;
    ++s.batches;
    if (written > 1) s.coalesced += written;
    if (last > s.acked_sequence) s.acked_sequence = last;
  }
  if (s.queue.empty()) {
    s.phase = Phase::kIdle;
    s.overflow_episode = false;
  } else {
    MakeReadyLocked(sub);
  }
}

DeliverySnapshot DeliveryEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DeliverySnapshot snap;
  snap.last_sequence = last_sequence_;
  snap.subscribers.reserve(subs_.size());
  for (const auto& [uri, sub] : subs_) {
    SubscriberSnapshot s;
    s.uri = uri;
    s.destination = sub->destination;
    s.stream = sub->is_stream;
    s.queue_depth = sub->queue.size();
    s.enqueued = sub->enqueued;
    s.delivered = sub->delivered;
    s.batches = sub->batches;
    s.coalesced = sub->coalesced;
    s.dropped = sub->dropped;
    s.retries = sub->retries;
    s.failures = sub->failures;
    s.acked_sequence = sub->acked_sequence;
    s.cursor_lag = sub->queue.empty()
                       ? 0
                       : sub->queue.back()->sequence - sub->acked_sequence;
    s.breaker_state = sub->breaker->state();
    s.breaker_stats = sub->breaker->stats();
    snap.total_queued += s.queue_depth;
    snap.max_queue_depth = std::max(snap.max_queue_depth, s.queue_depth);
    snap.delivered += s.delivered;
    snap.batches += s.batches;
    snap.coalesced += s.coalesced;
    snap.dropped += s.dropped;
    snap.retries += s.retries;
    snap.failures += s.failures;
    snap.max_cursor_lag = std::max(snap.max_cursor_lag, s.cursor_lag);
    if (s.breaker_state == BreakerState::kOpen) ++snap.breakers_open;
    if (s.stream) ++snap.streams;
    snap.subscribers.push_back(std::move(s));
  }
  return snap;
}

std::size_t DeliveryEngine::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subs_.size();
}

}  // namespace ofmf::core
