#include "http/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "http/wire.hpp"

namespace ofmf::http {

namespace {

// Event tags for the two non-connection fds the loop owns.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

constexpr int kAcceptBackoffInitialMs = 10;
constexpr int kAcceptBackoffMaxMs = 1000;

bool ResourceExhaustion(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<Response> HttpClient::Get(const std::string& target) {
  return Send(MakeRequest(Method::kGet, target));
}

Result<Response> HttpClient::PostJson(const std::string& target, const json::Json& body) {
  return Send(MakeJsonRequest(Method::kPost, target, body));
}

Result<Response> HttpClient::PatchJson(const std::string& target, const json::Json& body) {
  return Send(MakeJsonRequest(Method::kPatch, target, body));
}

Result<Response> HttpClient::Delete(const std::string& target) {
  return Send(MakeRequest(Method::kDelete, target));
}

Result<Response> InProcessClient::Send(const Request& request) {
  if (!handler_) return Status::Unavailable("no handler bound");
  return handler_(request);
}

// ------------------------------------------------------------- TcpServer ---

/// Per-connection state. Owned and touched exclusively by the loop thread;
/// workers refer to a connection only by its id.
///
/// The outbox is a scatter-gather segment list, not a byte string: each
/// segment references bytes owned elsewhere (a cached head slab, a body
/// slab, or static Connection fragments). `owner` keeps the backing slab
/// alive while the segment is queued — nullptr marks static-storage bytes.
/// Invariants: `out_off` indexes into the FRONT segment only; segments are
/// popped strictly in order (one-in-flight response ordering is preserved
/// because QueueResponse appends atomically per response); the bytes a
/// segment references are immutable for the segment's lifetime.
struct TcpServer::Conn {
  struct OutChunk {
    std::shared_ptr<const std::string> owner;  // null for static fragments
    const char* data = nullptr;
    std::size_t size = 0;
  };

  int fd = -1;
  std::uint64_t id = 0;
  WireParser parser{WireParser::Mode::kRequest};
  std::deque<OutChunk> outbox;   // response segments awaiting the wire
  std::size_t out_off = 0;       // sent bytes of the front segment
  std::size_t out_bytes = 0;     // total unsent bytes across segments
  std::uint32_t mask = 0;        // epoll interest currently installed
  std::size_t requests = 0;      // requests taken off this connection
  bool busy = false;         // a request is with the worker pool
  bool discard = false;      // parse error / limit breach: ignore further input
  bool close_after = false;  // close once outbox drains
  bool saw_eof = false;      // peer half-closed its write side
  bool streaming = false;    // long-lived stream (SSE): no request pump
  std::shared_ptr<StreamWriter::Shared> stream;  // producer-facing state
  std::chrono::steady_clock::time_point idle_deadline{};
};

// ---------------------------------------------------------- StreamWriter ---

bool StreamWriter::Write(std::string chunk) const {
  if (!shared_ || shared_->closed.load(std::memory_order_acquire)) return false;
  if (chunk.empty()) return true;
  StreamWriter::Channel& channel = *shared_->channel;
  std::lock_guard<std::mutex> lock(channel.mu);
  if (channel.stopped || shared_->closed.load(std::memory_order_acquire)) return false;
  shared_->pending.fetch_add(chunk.size(), std::memory_order_relaxed);
  const bool wake = channel.ops.empty();
  channel.ops.push_back(Op{shared_, std::move(chunk), false});
  if (wake && channel.wake_fd >= 0) {
    // Under the channel mutex so the write can never race Stop() closing
    // the eventfd; batched like the completion channel (one tick while the
    // queue is non-empty).
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(channel.wake_fd, &one, sizeof(one));
  }
  return true;
}

void StreamWriter::Close() const {
  if (!shared_) return;
  StreamWriter::Channel& channel = *shared_->channel;
  std::lock_guard<std::mutex> lock(channel.mu);
  if (channel.stopped) return;
  const bool wake = channel.ops.empty();
  channel.ops.push_back(Op{shared_, std::string(), true});
  if (wake && channel.wake_fd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(channel.wake_fd, &one, sizeof(one));
  }
}

bool StreamWriter::closed() const {
  return !shared_ || shared_->closed.load(std::memory_order_acquire);
}

std::size_t StreamWriter::buffered_bytes() const {
  if (!shared_) return 0;
  return shared_->pending.load(std::memory_order_relaxed) +
         shared_->queued.load(std::memory_order_relaxed);
}

TcpServer::TcpServer() = default;

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(ServerHandler handler, std::uint16_t port,
                        ServerOptions options) {
  if (running_.load()) return Status::FailedPrecondition("server already running");
  handler_ = std::move(handler);
  options_ = options;
  if (options_.workers == 0) {
    options_.workers = std::max<std::size_t>(4, std::thread::hardware_concurrency());
  }
  if (options_.max_queued_requests == 0) {
    options_.max_queued_requests = options_.workers * 64;
  }
  if (options_.max_connections == 0) options_.max_connections = 1024;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket(): " + std::string(std::strerror(errno)));

  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("bind(): " + std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 1024) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen(): " + std::string(std::strerror(errno)));
  }
  SetNonBlocking(listen_fd_);
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ >= 0) wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    listen_fd_ = epoll_fd_ = -1;
    return Status::Internal("epoll/eventfd: " + detail);
  }
  EpollCtl(EPOLL_CTL_ADD, listen_fd_, kListenTag, EPOLLIN);
  EpollCtl(EPOLL_CTL_ADD, wake_fd_, kWakeTag, EPOLLIN);

  stream_channel_ = std::make_shared<StreamWriter::Channel>();
  stream_channel_->wake_fd = wake_fd_;

  accept_registered_ = true;
  accept_paused_full_ = false;
  in_accept_backoff_ = false;
  accept_backoff_ms_ = 0;
  stop_requested_.store(false);
  pool_ = std::make_unique<ThreadPool>(options_.workers, options_.max_queued_requests);
  pool_->set_warn_queue_depth(options_.max_queued_requests);
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    scheduler_ = options_.tenant_classifier
                     ? std::make_unique<qos::FairScheduler>(options_.qos_queue_per_tenant)
                     : nullptr;
  }
  drain_rate_ = qos::DrainRateEstimator(
      static_cast<double>(options_.workers) * 100.0);
  qos_inflight_ = 0;

  running_.store(true);
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  stop_requested_.store(true);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (stream_channel_) {
    // Writers holding a StreamWriter observe `stopped` under the channel
    // mutex; clearing wake_fd here (before the close below) guarantees no
    // producer ever writes to a recycled fd.
    std::lock_guard<std::mutex> lock(stream_channel_->mu);
    stream_channel_->stopped = true;
    stream_channel_->wake_fd = -1;
    stream_channel_->ops.clear();
  }
  if (pool_) {
    // In-flight handlers finish on the worker pool; their responses are
    // dropped (the loop already closed every connection fd). The deadline
    // bounds how long a stuck handler can delay shutdown.
    if (!pool_->DrainFor(std::chrono::milliseconds(options_.drain_timeout_ms))) {
      OFMF_WARN << "TcpServer::Stop(): handlers still running after "
                << options_.drain_timeout_ms << " ms drain deadline";
    }
    pool_.reset();
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

std::vector<qos::TenantStats> TcpServer::TenantQosStats() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (!scheduler_) return {};
  return scheduler_->Stats();
}

ServerStats TcpServer::stats() const {
  ServerStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.requests_served = served_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.limit_rejections = limit_rejections_.load(std::memory_order_relaxed);
  s.overload_rejections = overload_rejections_.load(std::memory_order_relaxed);
  s.rate_limited_rejections = rate_limited_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.streams_opened = streams_opened_.load(std::memory_order_relaxed);
  s.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  s.accept_backoff_bursts = accept_backoff_bursts_.load(std::memory_order_relaxed);
  s.io_recv_calls = recv_calls_.load(std::memory_order_relaxed);
  s.io_send_calls = send_calls_.load(std::memory_order_relaxed);
  s.backend_wait_calls = wait_calls_.load(std::memory_order_relaxed);
  s.backend_ctl_calls = ctl_calls_.load(std::memory_order_relaxed);
  return s;
}

bool TcpServer::EpollCtl(int op, int fd, std::uint64_t tag, std::uint32_t events) {
  ctl_calls_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
}

void TcpServer::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpServer::LoopMain() {
  const auto sweep_interval = std::chrono::milliseconds(
      options_.idle_timeout_ms > 0
          ? std::clamp(options_.idle_timeout_ms / 4, 10, 500)
          : 500);
  next_idle_sweep_ = Now() + sweep_interval;

  std::array<epoll_event, 256> events;
  while (true) {
    const int timeout = LoopTimeoutMs(Now());
    wait_calls_.fetch_add(1, std::memory_order_relaxed);
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               timeout);
    if (stop_requested_.load()) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
      } else if (tag == kWakeTag) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        if (stop_requested_.load()) break;
        HandleCompletions();
        DrainStreamOps();
      } else {
        HandleConnEvent(tag, events[i].events);
      }
    }
    if (stop_requested_.load()) break;
    const auto now = Now();
    if (options_.idle_timeout_ms > 0 && now >= next_idle_sweep_) {
      SweepIdle(now);
      next_idle_sweep_ = now + sweep_interval;
    }
    RearmAcceptIfDue(now);
  }

  // Shutdown: close every connection fd (this is what unblocks Stop() even
  // with idle keep-alive peers — nothing here ever blocks in recv), then the
  // listener. Worker completions that arrive afterwards find no connection
  // and are dropped.
  for (auto& [id, conn] : conns_) {
    MarkStreamClosed(*conn);
    EpollCtl(EPOLL_CTL_DEL, conn->fd, id, 0);
    ::close(conn->fd);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

int TcpServer::LoopTimeoutMs(std::chrono::steady_clock::time_point now) const {
  auto until = [&now](std::chrono::steady_clock::time_point when) {
    const auto delta =
        std::chrono::duration_cast<std::chrono::milliseconds>(when - now).count();
    return delta < 0 ? static_cast<long long>(0) : static_cast<long long>(delta);
  };
  long long best = -1;
  if (options_.idle_timeout_ms > 0) best = until(next_idle_sweep_);
  if (in_accept_backoff_ && !accept_registered_ && !accept_paused_full_) {
    const long long t = until(accept_rearm_at_);
    best = best < 0 ? t : std::min(best, t);
  }
  if (best < 0) return -1;
  return static_cast<int>(std::min<long long>(best, 60000)) + 1;
}

void TcpServer::HandleAccept() {
  while (true) {
    if (conns_.size() >= options_.max_connections) {
      if (accept_registered_) {
        EpollCtl(EPOLL_CTL_DEL, listen_fd_, kListenTag, 0);
        accept_registered_ = false;
      }
      accept_paused_full_ = true;
      return;
    }
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Burst over; a later failure starts (and logs) a fresh backoff.
        in_accept_backoff_ = false;
        accept_backoff_ms_ = 0;
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      // EMFILE/ENFILE and friends persist until fds free up: sleeping the
      // listener (deregister + timed rearm) instead of `continue` is what
      // keeps the loop from spinning at 100% CPU. Unknown errnos get the
      // same treatment — anything persistent would spin identically.
      EnterAcceptBackoff(errno);
      return;
    }
    in_accept_backoff_ = false;
    accept_backoff_ms_ = 0;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->parser.set_limits(options_.max_header_bytes, options_.max_body_bytes);
    conn->idle_deadline = Now() + std::chrono::milliseconds(options_.idle_timeout_ms);
    conn->mask = EPOLLIN;
    if (!EpollCtl(EPOLL_CTL_ADD, fd, conn->id, EPOLLIN)) {
      ::close(fd);
      continue;
    }
    conns_[conn->id] = std::move(conn);
  }
}

void TcpServer::EnterAcceptBackoff(int err) {
  accept_backoff_ms_ = in_accept_backoff_
                           ? std::min(accept_backoff_ms_ * 2, kAcceptBackoffMaxMs)
                           : kAcceptBackoffInitialMs;
  if (!in_accept_backoff_) {
    // Log once per burst, not once per failure: a persistent EMFILE would
    // otherwise flood the log at the retry rate.
    OFMF_WARN << "accept() failing (" << std::strerror(err) << "); pausing accepts, "
              << "retrying in " << accept_backoff_ms_ << " ms"
              << (ResourceExhaustion(err) ? " (fd exhaustion)" : "");
    in_accept_backoff_ = true;
    accept_backoff_bursts_.fetch_add(1, std::memory_order_relaxed);
  }
  if (accept_registered_) {
    EpollCtl(EPOLL_CTL_DEL, listen_fd_, kListenTag, 0);
    accept_registered_ = false;
  }
  accept_rearm_at_ = Now() + std::chrono::milliseconds(accept_backoff_ms_);
}

void TcpServer::RearmAcceptIfDue(std::chrono::steady_clock::time_point now) {
  if (accept_registered_ || accept_paused_full_ || !in_accept_backoff_) return;
  if (now < accept_rearm_at_) return;
  if (EpollCtl(EPOLL_CTL_ADD, listen_fd_, kListenTag, EPOLLIN)) {
    accept_registered_ = true;
  }
}

void TcpServer::HandleConnEvent(std::uint64_t id, std::uint32_t events) {
  {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& c = *it->second;
    const bool readable = (events & EPOLLIN) != 0;
    const bool hangup = (events & (EPOLLERR | EPOLLHUP)) != 0;
    if (hangup && !readable) {
      CloseConn(id);
      return;
    }
    if (readable || hangup) {
      while (true) {
        // Receive straight into the parser's pooled slab: no intermediate
        // stack buffer, no Feed() memcpy. Doomed connections drain into a
        // scratch buffer instead so the parser stops allocating for them.
        char scratch[16384];
        char* dst = scratch;
        std::size_t cap = sizeof(scratch);
        if (!c.discard) dst = c.parser.BeginFill(16384, &cap);
        const ssize_t n = ::recv(c.fd, dst, cap, 0);
        recv_calls_.fetch_add(1, std::memory_order_relaxed);
        if (n > 0) {
          c.idle_deadline =
              Now() + std::chrono::milliseconds(options_.idle_timeout_ms);
          if (!c.discard) c.parser.CommitFill(static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < cap) break;
          continue;
        }
        if (n == 0) {
          c.saw_eof = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConn(id);
        return;
      }
    }
  }
  ServiceConn(id);
}

void TcpServer::ServiceConn(std::uint64_t id) {
  while (true) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& c = *it->second;

    // 1. Drain pending output first: responses go out in request order.
    if (!c.outbox.empty()) {
      if (!WriteSome(c)) {
        CloseConn(id);
        return;
      }
      if (!c.outbox.empty()) break;  // EAGAIN: wait for writability
      c.idle_deadline = Now() + std::chrono::milliseconds(options_.idle_timeout_ms);
      if (c.close_after) {
        CloseConn(id);
        return;
      }
    }

    // A streaming connection has no request pump: chunks arrive through
    // DrainStreamOps, and the only events that matter here are peer EOF
    // (detected by the scratch-drain reads) and writability.
    if (c.streaming) {
      if (c.saw_eof) {
        CloseConn(id);
        return;
      }
      break;
    }

    if (c.busy || c.discard) break;

    // 2. Limit breaches answer 431/413 and doom the connection. Detected
    //    before HasMessage(): an oversized Content-Length is rejected
    //    without ever buffering the body.
    if (c.parser.overflow() != WireParser::Overflow::kNone) {
      limit_rejections_.fetch_add(1, std::memory_order_relaxed);
      const bool header = c.parser.overflow() == WireParser::Overflow::kHeader;
      c.discard = true;
      QueueResponse(c,
                    MakeTextResponse(header ? 431 : 413,
                                     header ? "request header block exceeds limit"
                                            : "request body exceeds limit"),
                    true);
      continue;
    }

    // 3. Dispatch the next complete request (one in flight per connection;
    //    pipelined successors wait buffered until this response is on the
    //    wire).
    if (!c.parser.HasMessage()) {
      if (c.saw_eof) {
        CloseConn(id);
        return;
      }
      break;
    }
    Result<Request> request = c.parser.TakeRequest();
    if (!request.ok()) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      // A broken parse poisons the framing: drop every consumed-but-unparsed
      // byte so pipelined garbage can never be misread as a fresh request,
      // answer 400, and close.
      c.discard = true;
      c.parser.Reset();
      QueueResponse(c, MakeTextResponse(400, request.status().message()), true);
      continue;
    }
    ++c.requests;
    c.busy = true;
    DispatchRequest(c, std::move(*request));
    if (c.busy) break;  // with the workers; completion resumes the pump
    // Overload 503 was queued synchronously; loop around to flush it.
  }

  auto it = conns_.find(id);
  if (it != conns_.end()) {
    Conn& c = *it->second;
    if (c.stream) c.stream->queued.store(c.out_bytes, std::memory_order_relaxed);
    SyncInterest(c);
  }
}

Response TcpServer::MakeOverloadResponse() {
  // Retry-After proportional to how long the present backlog needs to
  // drain: clients shed from a deep queue are told to stay away longer than
  // ones shed from a shallow one, so the herd trickles back instead of
  // returning in one synchronized burst (the old constant "1" did exactly
  // that, and disagreed with BeginDrain's horizon for no reason).
  std::size_t depth = pool_ ? pool_->stats().queued : 0;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (scheduler_) depth += scheduler_->queued();
  }
  const double seconds =
      qos::DeriveRetryAfterSeconds(depth, drain_rate_.rate_per_sec());
  Response overloaded = MakeTextResponse(503, "request queue full");
  overloaded.headers.Set("Retry-After",
                         std::to_string(qos::RetryAfterHeaderSeconds(seconds)));
  return overloaded;
}

std::vector<std::uint64_t> TcpServer::PumpScheduler() {
  // Moves admitted requests to the worker pool in DRR order while the pool
  // has room. Runs on the loop thread; sched_mu_ is only held against
  // cross-thread stats readers.
  std::vector<std::uint64_t> rejected;
  while (true) {
    // Feed the pool only up to one task per worker. Any deeper and the
    // excess sits in the pool's FIFO where DRR ordering no longer applies —
    // a flood tenant's backlog would queue ahead of later-arriving light
    // tenants, which is exactly what weighted fairness must prevent. The
    // backlog stays in the scheduler; completions re-pump.
    if (qos_inflight_ >= options_.workers) break;
    qos::FairScheduler::Item item;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (!scheduler_ || scheduler_->empty()) break;
      item = scheduler_->Dequeue();
    }
    if (!item.work) break;
    if (pool_->TrySubmit(std::move(item.work))) {
      ++qos_inflight_;
    } else {
      // Lost a race to the bound (should not happen: the loop is the only
      // producer); shed this request like a FIFO overload.
      overload_rejections_.fetch_add(1, std::memory_order_relaxed);
      auto it = conns_.find(item.cookie);
      if (it != conns_.end()) {
        it->second->busy = false;
        QueueResponse(*it->second, MakeOverloadResponse(), false);
        rejected.push_back(item.cookie);
      }
      break;
    }
  }
  return rejected;
}

void TcpServer::DispatchRequest(Conn& conn, Request request) {
  const std::uint64_t id = conn.id;
  // Tenant classification happens before the request moves into the worker
  // closure (the classifier is a cheap token -> tenant lookup; it runs on
  // the loop thread like the rest of admission).
  qos::TenantSpec tenant;
  const bool qos_enabled = static_cast<bool>(options_.tenant_classifier);
  if (qos_enabled) tenant = options_.tenant_classifier(request);
  auto work = [this, id, request = std::move(request)]() mutable {
    // Adopt the caller's wire identity (or mint a fresh trace when sampling
    // says so). The ambient TraceContext is installed per-dispatch — worker
    // threads are pooled, so nothing trace-related may persist on the
    // thread. Skipped entirely when tracing is off: the wire path must not
    // pay for header parsing.
    trace::TraceContext remote;
    if (trace::TraceRecorder::instance().enabled()) {
      remote.trace_id = trace::HexToId(request.headers.GetOr(trace::kTraceIdHeader, ""));
      if (remote.trace_id != 0) {
        remote.span_id = trace::HexToId(request.headers.GetOr(trace::kSpanIdHeader, ""));
      }
    }
    Response response;
    {
      trace::Span span("tcp.serve", remote);
      response = handler_(request);
    }
    const bool close_after =
        strings::EqualsIgnoreCase(request.headers.GetOr("Connection", ""), "close");
    bool need_wake;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      // A non-empty queue already has an unconsumed eventfd tick in flight;
      // skipping the redundant write lets a busy loop drain completions in
      // batches instead of taking one wakeup syscall per response.
      need_wake = done_.empty();
      done_.push_back(Completion{id, std::move(response), close_after});
    }
    if (need_wake) Wake();
  };

  if (qos_enabled) {
    qos::FairScheduler::Admission admission;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      scheduler_->ConfigureTenant(tenant);
      admission = scheduler_->Enqueue(tenant.id, id, std::move(work), NowNs());
    }
    switch (admission.verdict) {
      case qos::FairScheduler::Admit::kAccepted: {
        const std::vector<std::uint64_t> shed = PumpScheduler();
        // Shed connections other than this one need their 503 flushed;
        // this one is flushed by our caller's pump (busy was reset).
        for (const std::uint64_t cookie : shed) {
          if (cookie != id) ServiceConn(cookie);
        }
        return;
      }
      case qos::FairScheduler::Admit::kRateLimited: {
        rate_limited_.fetch_add(1, std::memory_order_relaxed);
        conn.busy = false;
        Response limited = MakeTextResponse(429, "tenant rate limit exceeded");
        limited.headers.Set(
            "Retry-After",
            std::to_string(qos::RetryAfterHeaderSeconds(admission.retry_after_s)));
        QueueResponse(conn, std::move(limited), false);
        return;
      }
      case qos::FairScheduler::Admit::kQueueFull: {
        overload_rejections_.fetch_add(1, std::memory_order_relaxed);
        conn.busy = false;
        QueueResponse(conn, MakeOverloadResponse(), false);
        return;
      }
    }
    return;
  }

  if (!pool_->TrySubmit(std::move(work))) {
    overload_rejections_.fetch_add(1, std::memory_order_relaxed);
    conn.busy = false;
    QueueResponse(conn, MakeOverloadResponse(), false);
  }
}

void TcpServer::QueueResponse(Conn& conn, Response response, bool close_after) {
  // The Connection header lives in a static fragment appended between the
  // head slab and the body, so a pre-serialized cached head stays valid for
  // both keep-alive and close responses.
  static const std::string kKeepAliveFragment = "Connection: keep-alive\r\n\r\n";
  static const std::string kCloseFragment = "Connection: close\r\n\r\n";

  bool final_close = close_after || conn.saw_eof || conn.discard;
  if (options_.max_requests_per_connection > 0 &&
      conn.requests >= options_.max_requests_per_connection) {
    final_close = true;
  }

  // A streaming response converts the connection instead of completing an
  // exchange — unless it is already doomed, in which case the handler's
  // response goes out as a plain final body and the hook is never invoked.
  if (response.stream_open() != nullptr && !final_close) {
    BeginStream(conn, response);
    return;
  }

  // Head: the pre-serialized slab when the handler attached one and the
  // headers were not mutated since (wire_head() returns null otherwise);
  // serialize on the spot as the fallback.
  std::shared_ptr<const std::string> head = response.wire_head();
  if (!head) {
    head = std::make_shared<const std::string>(
        SerializeResponseHead(response, response.body.size()));
  }
  conn.outbox.push_back(Conn::OutChunk{head, head->data(), head->size()});
  const std::string& fragment = final_close ? kCloseFragment : kKeepAliveFragment;
  conn.outbox.push_back(Conn::OutChunk{nullptr, fragment.data(), fragment.size()});
  conn.out_bytes += head->size() + fragment.size();
  if (!response.body.empty()) {
    // The body rides as a reference to its slab — zero-copy from the cache
    // (or handler) all the way to sendmsg.
    conn.outbox.push_back(
        Conn::OutChunk{response.body.slab(), response.body.data(), response.body.size()});
    conn.out_bytes += response.body.size();
  }
  conn.close_after = final_close;
  served_.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::BeginStream(Conn& conn, const Response& response) {
  // Status line + headers with NO Content-Length: the stream ends when the
  // connection does. Streaming heads are never cached, so they serialize on
  // the spot from the header map.
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     ReasonPhrase(response.status) + "\r\n";
  for (const auto& [name, value] : response.headers.entries()) {
    head += name;
    head += ": ";
    head += value;
    head += "\r\n";
  }
  head += "Connection: keep-alive\r\n\r\n";
  auto slab = std::make_shared<const std::string>(std::move(head));
  conn.outbox.push_back(Conn::OutChunk{slab, slab->data(), slab->size()});
  conn.out_bytes += slab->size();
  conn.streaming = true;
  conn.discard = true;  // further request bytes drain into scratch
  conn.close_after = false;

  auto shared = std::make_shared<StreamWriter::Shared>();
  shared->channel = stream_channel_;
  shared->conn_id = conn.id;
  shared->queued.store(conn.out_bytes, std::memory_order_relaxed);
  conn.stream = shared;
  streams_opened_.fetch_add(1, std::memory_order_relaxed);
  served_.fetch_add(1, std::memory_order_relaxed);
  // The hook only hands the writer off to a producer; it runs on the loop
  // thread and must not block (see Response::set_stream).
  (*response.stream_open())(StreamWriter(std::move(shared)));
}

void TcpServer::DrainStreamOps() {
  if (!stream_channel_) return;
  std::vector<StreamWriter::Op> ops;
  {
    std::lock_guard<std::mutex> lock(stream_channel_->mu);
    ops.swap(stream_channel_->ops);
  }
  if (ops.empty()) return;
  std::vector<std::uint64_t> touched;
  for (StreamWriter::Op& op : ops) {
    if (!op.shared) continue;
    op.shared->pending.fetch_sub(op.data.size(), std::memory_order_relaxed);
    auto it = conns_.find(op.shared->conn_id);
    if (it == conns_.end() || !it->second->streaming) continue;
    Conn& c = *it->second;
    if (op.close) c.close_after = true;
    if (!op.data.empty()) {
      auto slab = std::make_shared<const std::string>(std::move(op.data));
      c.outbox.push_back(Conn::OutChunk{slab, slab->data(), slab->size()});
      c.out_bytes += slab->size();
    }
    if (std::find(touched.begin(), touched.end(), c.id) == touched.end()) {
      touched.push_back(c.id);
    }
  }
  for (const std::uint64_t id : touched) ServiceConn(id);
}

void TcpServer::MarkStreamClosed(Conn& conn) {
  if (!conn.stream) return;
  conn.stream->closed.store(true, std::memory_order_release);
  conn.stream->pending.store(0, std::memory_order_relaxed);
  conn.stream->queued.store(0, std::memory_order_relaxed);
  conn.stream.reset();
}

bool TcpServer::WriteSome(Conn& conn) {
  // Scatter-gather flush: up to kMaxIov outbox segments per sendmsg, the
  // front one adjusted by out_off. Partial writes advance across iovec
  // boundaries without copying or re-slicing segments.
  constexpr std::size_t kMaxIov = 64;
  while (!conn.outbox.empty()) {
    iovec iov[kMaxIov];
    std::size_t iovcnt = 0;
    for (const Conn::OutChunk& chunk : conn.outbox) {
      if (iovcnt == kMaxIov) break;
      const std::size_t skip = iovcnt == 0 ? conn.out_off : 0;
      iov[iovcnt].iov_base = const_cast<char*>(chunk.data + skip);
      iov[iovcnt].iov_len = chunk.size - skip;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    send_calls_.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t advanced = static_cast<std::size_t>(n);
      conn.out_bytes -= advanced;
      while (advanced > 0) {
        Conn::OutChunk& front = conn.outbox.front();
        const std::size_t remaining = front.size - conn.out_off;
        if (advanced >= remaining) {
          advanced -= remaining;
          conn.out_off = 0;
          conn.outbox.pop_front();
        } else {
          conn.out_off += advanced;
          advanced = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void TcpServer::SyncInterest(Conn& conn) {
  std::uint32_t want = 0;
  // Backpressure: once a client runs ahead of its in-flight request (bytes
  // already buffered beyond it), the loop stops reading until the response
  // is out, bounding per-connection buffering no matter how fast the client
  // pipelines. A busy connection whose socket is merely quiet keeps EPOLLIN:
  // the well-behaved request-response cadence then never toggles epoll
  // interest at all (at most one extra read burst lands before the disarm).
  // Streaming connections keep reading (into the scratch drain) so peer
  // disconnect surfaces as EOF instead of lingering until a failed write.
  const bool read_paused = (conn.discard && !conn.streaming) || conn.saw_eof ||
                           (conn.busy && conn.parser.buffered_bytes() > 0);
  if (!read_paused) want |= EPOLLIN;
  if (!conn.outbox.empty()) want |= EPOLLOUT;
  if (want == conn.mask) return;
  EpollCtl(EPOLL_CTL_MOD, conn.fd, conn.id, want);
  conn.mask = want;
}

void TcpServer::HandleCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  if (!done.empty()) drain_rate_.NoteCompletions(done.size(), NowNs());
  // Every completion under QoS dispatch frees an in-flight pump slot (all
  // worker tasks flow through the scheduler when a classifier is set).
  if (options_.tenant_classifier) {
    qos_inflight_ -= std::min(qos_inflight_, done.size());
  }
  for (Completion& completion : done) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died while handling
    Conn& c = *it->second;
    c.busy = false;
    QueueResponse(c, std::move(completion.response), completion.close_after);
    ServiceConn(completion.conn_id);
  }
  // Worker slots just freed: move the next DRR round into the pool.
  for (const std::uint64_t cookie : PumpScheduler()) ServiceConn(cookie);
}

void TcpServer::SweepIdle(std::chrono::steady_clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (conn->busy || !conn->outbox.empty() || conn->streaming) continue;
    if (now >= conn->idle_deadline) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(id);
  }
}

void TcpServer::CloseConn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  MarkStreamClosed(*it->second);
  EpollCtl(EPOLL_CTL_DEL, it->second->fd, id, 0);
  ::close(it->second->fd);
  conns_.erase(it);
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (accept_paused_full_ && conns_.size() < options_.max_connections) {
    accept_paused_full_ = false;
    if (!in_accept_backoff_) {
      if (EpollCtl(EPOLL_CTL_ADD, listen_fd_, kListenTag, EPOLLIN)) {
        accept_registered_ = true;
      }
    }
  }
}

// ------------------------------------------------------------- TcpClient ---

TcpClient::~TcpClient() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (const int fd : idle_fds_) ::close(fd);
  idle_fds_.clear();
}

int TcpClient::AcquirePooled() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  while (!idle_fds_.empty()) {
    const int fd = idle_fds_.back();  // most recently used: most likely alive
    idle_fds_.pop_back();
    // Cheap liveness probe: a closed peer shows up as EOF or an error; a
    // healthy idle connection has nothing to read.
    char probe = 0;
    const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return fd;
    ::close(fd);  // dead, or desynced (unexpected bytes)
  }
  return -1;
}

void TcpClient::Release(int fd) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  idle_fds_.push_back(fd);
  while (idle_fds_.size() > kMaxPooledConnections) {
    ::close(idle_fds_.front());  // evict least recently used
    idle_fds_.pop_front();
  }
}

struct TcpClient::Leg {
  enum class Stage { kDelayed, kConnecting, kSending, kReceiving, kDone };
  using Clock = std::chrono::steady_clock;

  Leg(TcpClient* owner, Request req) : client(owner), request(std::move(req)) {}

  TcpClient* client;
  Request request;
  std::string head;
  Stage stage = Stage::kDelayed;
  /// kDelayed: when to send. Later stages: when the socket counts as hung.
  Clock::time_point wake;
  int fd = -1;
  bool reused = false;   // fd came from the pool
  bool retried = false;  // the one stale-socket retry is spent
  std::size_t sent = 0;
  bool received_any = false;
  WireParser parser{WireParser::Mode::kResponse};

  bool has_deadline() const { return stage == Stage::kDelayed || client->timeout_ms_ > 0; }
  void Progressed() {
    if (client->timeout_ms_ > 0) {
      wake = Clock::now() + std::chrono::milliseconds(client->timeout_ms_);
    }
  }
  void Close() {
    ::close(fd);
    fd = -1;
  }
  /// Closes the socket of an exchange that made no progress for timeout_ms.
  /// Never the stale path: the server may have executed the request, so
  /// re-sending is RetryingClient's policy decision, not the pool's.
  Status TimedOut() {
    const char* call = stage == Stage::kConnecting ? "connect()"
                       : stage == Stage::kSending  ? "sendmsg()"
                                                   : "recv()";
    Close();
    return Status::Timeout(std::string(call) + ": timed out after " +
                           std::to_string(client->timeout_ms_) + " ms");
  }
};

void TcpClient::Connected(int fd) {
  // Sockets block, bounded by timeout_ms: the batch asks for non-blocking
  // calls with MSG_DONTWAIT, and its last exchange in flight simply waits.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  if (timeout_ms_ > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms_ / 1000;
    tv.tv_usec = (timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  opened_.fetch_add(1, std::memory_order_relaxed);
}

Status TcpClient::Open(Leg& leg) {
  leg.sent = 0;
  leg.received_any = false;
  leg.parser.Reset();
  // A HEAD response advertises the GET's Content-Length but carries no body.
  leg.parser.set_bodyless_response(leg.request.method == Method::kHead);
  leg.fd = AcquirePooled();
  leg.reused = leg.fd >= 0;
  leg.Progressed();
  if (leg.reused) {
    reused_.fetch_add(1, std::memory_order_relaxed);
    leg.stage = Leg::Stage::kSending;
    return Status::Ok();
  }
  // Connect without blocking, so a slow connect holds up no other exchange.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status::Internal("socket(): " + std::string(std::strerror(errno)));
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  leg.fd = fd;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    Connected(fd);
    leg.stage = Leg::Stage::kSending;
    return Status::Ok();
  }
  if (errno != EINPROGRESS) {
    const int err = errno;
    leg.Close();
    return Status::Unavailable("connect(): " + std::string(std::strerror(err)));
  }
  leg.stage = Leg::Stage::kConnecting;
  return Status::Ok();
}

std::optional<Result<Response>> TcpClient::Advance(Leg& leg, short revents, bool alone) {
  // A socket that fails before any response byte arrived is retried once on
  // a fresh connection when it came from the pool: the server closed it
  // between requests (idle timeout, restart, max-requests cap), so the
  // request was provably never processed.
  auto fail = [&](Status status, bool stale) -> std::optional<Result<Response>> {
    leg.Close();
    if (!stale || leg.retried) return Result<Response>(std::move(status));
    leg.retried = true;
    const Status reopened = Open(leg);
    if (!reopened.ok()) return Result<Response>(reopened);
    return Advance(leg, 0, alone);
  };
  // Alone, the exchange blocks in the kernel (bounded by the socket's
  // timeouts); in company, a call that would block hands back to poll().
  const int dontwait = alone ? 0 : MSG_DONTWAIT;
  if (leg.stage == Leg::Stage::kDelayed) {
    const Status opened = Open(leg);
    if (!opened.ok()) return Result<Response>(opened);
  }
  if (leg.stage == Leg::Stage::kConnecting) {
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) return std::nullopt;
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(leg.fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) so_error = errno;
    if (so_error != 0) {
      return fail(Status::Unavailable("connect(): " + std::string(std::strerror(so_error))),
                  false);
    }
    Connected(leg.fd);
    leg.stage = Leg::Stage::kSending;
    leg.Progressed();
  }
  if (leg.stage == Leg::Stage::kSending) {
    // Two-segment gather send: serialized head + body reference, no
    // head-plus-body concatenation in user space.
    const std::string& head = leg.head;
    const Body& body = leg.request.body;
    const std::size_t total = head.size() + body.size();
    while (leg.sent < total) {
      iovec iov[2];
      msghdr msg{};
      if (leg.sent < head.size()) {
        iov[0].iov_base = const_cast<char*>(head.data() + leg.sent);
        iov[0].iov_len = head.size() - leg.sent;
        iov[1].iov_base = const_cast<char*>(body.data());
        iov[1].iov_len = body.size();
        msg.msg_iov = iov;
        msg.msg_iovlen = body.empty() ? 1 : 2;
      } else {
        iov[0].iov_base = const_cast<char*>(body.data() + (leg.sent - head.size()));
        iov[0].iov_len = total - leg.sent;
        msg.msg_iov = iov;
        msg.msg_iovlen = 1;
      }
      const ssize_t n = ::sendmsg(leg.fd, &msg, MSG_NOSIGNAL | dontwait);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (alone) return Result<Response>(leg.TimedOut());
        return std::nullopt;
      }
      if (n <= 0) {
        return fail(Status::Unavailable("sendmsg(): " + std::string(std::strerror(errno))),
                    leg.reused);
      }
      leg.sent += static_cast<std::size_t>(n);
      leg.Progressed();
    }
    leg.stage = Leg::Stage::kReceiving;
    if (!alone) return std::nullopt;  // the response cannot be there yet
  }
  while (!leg.parser.HasMessage()) {
    std::size_t cap = 0;
    char* dst = leg.parser.BeginFill(16384, &cap);
    const ssize_t n = ::recv(leg.fd, dst, cap, dontwait);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (alone) return Result<Response>(leg.TimedOut());
      return std::nullopt;
    }
    if (n < 0) {
      return fail(Status::Unavailable("recv(): " + std::string(std::strerror(errno))),
                  leg.reused && !leg.received_any);
    }
    if (n == 0) {
      return fail(Status::Unavailable("connection closed mid-response"),
                  leg.reused && !leg.received_any);
    }
    leg.received_any = true;
    leg.parser.CommitFill(static_cast<std::size_t>(n));
    leg.Progressed();
  }
  Result<Response> response = leg.parser.TakeResponse();
  const bool server_close =
      !response.ok() ||
      strings::EqualsIgnoreCase(response->headers.GetOr("Connection", ""), "close");
  if (!server_close && leg.parser.buffered_bytes() == 0) {
    Release(leg.fd);  // healthy keep-alive exchange: park it for the next request
    leg.fd = -1;
  } else {
    leg.Close();
  }
  return response;
}

void TcpClient::SendBatch(std::vector<Exchange> exchanges, const OnResponse& on_response) {
  using Clock = Leg::Clock;
  std::vector<Leg> legs;
  legs.reserve(exchanges.size());
  const Clock::time_point start = Clock::now();
  for (Exchange& exchange : exchanges) {
    Leg& leg = legs.emplace_back(exchange.client, std::move(exchange.request));
    Request& request = leg.request;
    request.headers.Set("Host", "127.0.0.1:" + std::to_string(leg.client->port_));
    if (!strings::EqualsIgnoreCase(request.headers.GetOr("Connection", ""), "close")) {
      request.headers.Set("Connection", "keep-alive");
    }
    leg.head = SerializeRequestHead(request);
    leg.wake = start + std::chrono::milliseconds(exchange.delay_ms);
  }
  std::size_t pending = legs.size();
  auto finish = [&](std::size_t i, Result<Response> response) {
    legs[i].stage = Leg::Stage::kDone;
    --pending;
    on_response(i, std::move(response));
  };
  // The last exchange in flight blocks; the others hand back to poll().
  auto advance = [&](std::size_t i, short revents) {
    if (auto response = legs[i].client->Advance(legs[i], revents, pending == 1)) {
      finish(i, std::move(*response));
    }
  };
  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;  // leg index of each fds entry
  while (pending > 0) {
    fds.clear();
    polled.clear();
    const Clock::time_point now = Clock::now();
    std::optional<Clock::time_point> next_wake;
    for (std::size_t i = 0; i < legs.size(); ++i) {
      Leg& leg = legs[i];
      if (leg.stage == Leg::Stage::kDone) continue;
      if (leg.has_deadline() && now >= leg.wake) {
        if (leg.stage == Leg::Stage::kDelayed) {
          advance(i, 0);
        } else {
          finish(i, leg.TimedOut());
        }
      } else if (pending == 1 && (leg.stage == Leg::Stage::kSending ||
                                  leg.stage == Leg::Stage::kReceiving)) {
        advance(i, 0);
      }
      if (leg.stage == Leg::Stage::kDone) continue;
      // Asked again: a leg that just left kDelayed may have no deadline.
      if (leg.has_deadline()) next_wake = next_wake ? std::min(*next_wake, leg.wake) : leg.wake;
      if (leg.stage == Leg::Stage::kDelayed) continue;
      const short events = leg.stage == Leg::Stage::kReceiving ? POLLIN : POLLOUT;
      fds.push_back(pollfd{leg.fd, events, 0});
      polled.push_back(i);
    }
    if (pending == 0) break;
    int wait_ms = -1;
    if (next_wake) {
      wait_ms = static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(*next_wake - now).count());
      wait_ms = std::max(wait_ms, 0);
    }
    if (::poll(fds.data(), fds.size(), wait_ms) < 0) {
      if (errno == EINTR) continue;
      const Status failed = Status::Internal("poll(): " + std::string(std::strerror(errno)));
      for (const std::size_t i : polled) {
        legs[i].Close();
        finish(i, failed);
      }
      continue;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents != 0) advance(polled[k], fds[k].revents);
    }
  }
}

Result<Response> TcpClient::Send(const Request& request) {
  Result<Response> result = Status::Internal("no response");
  std::vector<Exchange> exchange;
  exchange.push_back(Exchange{this, request, 0});
  SendBatch(std::move(exchange),
            [&result](std::size_t, Result<Response> response) { result = std::move(response); });
  return result;
}

}  // namespace ofmf::http
