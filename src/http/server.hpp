// Transports. HttpClient is the interface the OFMF client library and the
// Composability Manager program against; InProcessClient binds directly to a
// handler (tests, simulation), TcpServer/TcpClient speak real HTTP/1.1 over
// loopback sockets (examples, interop).
//
// TcpServer is a non-blocking reactor: one event loop owns the listen fd and
// every connection fd, parses requests incrementally, and dispatches each
// complete request to a bounded worker pool; workers hand finished responses
// back to the loop through an eventfd. Handler code never runs on the loop
// thread and never touches a socket. The loop waits on level-triggered
// epoll, and responses leave through a zero-copy scatter-gather outbox:
// per-connection (owner, data, size) segments flushed with sendmsg, so a
// cached body slab is never concatenated or copied. See DESIGN.md "HTTP
// reactor" and "Zero-copy data path".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/qos.hpp"
#include "common/result.hpp"
#include "common/threadpool.hpp"
#include "http/message.hpp"
#include "http/stream.hpp"
#include "http/wire.hpp"

namespace ofmf::http {

using ServerHandler = std::function<Response(const Request&)>;

/// Abstract client: issue one request, get one response.
class HttpClient {
 public:
  virtual ~HttpClient() = default;
  virtual Result<Response> Send(const Request& request) = 0;

  // Convenience wrappers.
  Result<Response> Get(const std::string& target);
  Result<Response> PostJson(const std::string& target, const json::Json& body);
  Result<Response> PatchJson(const std::string& target, const json::Json& body);
  Result<Response> Delete(const std::string& target);
};

/// Zero-copy in-process transport.
class InProcessClient : public HttpClient {
 public:
  explicit InProcessClient(ServerHandler handler) : handler_(std::move(handler)) {}
  Result<Response> Send(const Request& request) override;

 private:
  ServerHandler handler_;
};

/// Tuning knobs for TcpServer. The defaults suit the examples and tests;
/// rest_server exposes the interesting ones as flags.
struct ServerOptions {
  /// Worker threads handling parsed requests; 0 means
  /// max(4, hardware_concurrency).
  std::size_t workers = 0;
  /// Open connections the reactor will hold at once. At the cap the listen
  /// fd leaves the epoll set until a connection closes, so the kernel backlog
  /// absorbs the burst instead of the accept loop churning.
  std::size_t max_connections = 1024;
  /// Keep-alive connections idle longer than this are closed by the loop's
  /// timer sweep (0 disables). "Idle" covers a peer trickling a partial
  /// request: the clock resets on received bytes, not parsed messages.
  int idle_timeout_ms = 60000;
  /// Requests served on one connection before the server answers with
  /// Connection: close (0 = unlimited). Bounds per-connection state reuse.
  std::size_t max_requests_per_connection = 0;
  /// Request-size caps enforced by the per-connection WireParser; breaches
  /// answer 431 (header) or 413 (body) and close.
  std::size_t max_header_bytes = 16 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  /// Parsed requests waiting for a worker; at the cap new requests get an
  /// immediate 503 + Retry-After from the loop (0 means workers * 64).
  std::size_t max_queued_requests = 0;
  /// Stop(): how long to wait for in-flight handlers after the loop exits.
  int drain_timeout_ms = 2000;
  /// Multi-tenant QoS. With a classifier installed, every parsed request is
  /// tagged with its tenant and dispatch to the worker pool goes through a
  /// deficit-round-robin scheduler over per-tenant bounded queues with
  /// per-tenant token buckets: a bucket breach answers 429 + Retry-After
  /// derived from the refill time, a full tenant queue answers 503 with the
  /// drain-rate-derived Retry-After. Null classifier = one shared FIFO
  /// queue.
  std::function<qos::TenantSpec(const Request&)> tenant_classifier;
  /// Per-tenant queue bound for specs that leave max_queue at 0.
  std::size_t qos_queue_per_tenant = 256;
};

/// Monotonic counters the reactor maintains (relaxed atomics; exact values
/// are only meaningful after Stop() or from the loop's own thread, but
/// cross-thread reads are safe for tests and telemetry).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_served = 0;     // responses queued for the wire
  std::uint64_t parse_errors = 0;        // 400s from broken framing
  std::uint64_t limit_rejections = 0;    // 431/413
  std::uint64_t overload_rejections = 0; // 503: worker or tenant queue full
  std::uint64_t rate_limited_rejections = 0;  // 429: tenant token bucket dry
  std::uint64_t idle_closed = 0;         // reaped by the idle sweep
  std::uint64_t streams_opened = 0;      // streaming (SSE) responses started
  std::uint64_t accept_failures = 0;     // accept() errors (EMFILE, ...)
  std::uint64_t accept_backoff_bursts = 0;  // resource-exhaustion backoffs
  // Syscall accounting (perfbench's http.syscalls_per_req sums all four).
  std::uint64_t io_recv_calls = 0;       // recv() syscalls issued by the loop
  std::uint64_t io_send_calls = 0;       // sendmsg() syscalls issued
  std::uint64_t backend_wait_calls = 0;  // epoll_wait() syscalls
  std::uint64_t backend_ctl_calls = 0;   // epoll_ctl() syscalls
};

/// Non-blocking epoll reactor HTTP/1.1 server on 127.0.0.1. Keep-alive and
/// pipelining supported; requests on one connection are served in order, one
/// at a time. Handlers run on a bounded worker pool, never on the loop.
class TcpServer {
 public:
  TcpServer();
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds an ephemeral (or given) port and starts the reactor loop.
  Status Start(ServerHandler handler, std::uint16_t port = 0,
               ServerOptions options = {});
  /// Wakes the loop via the shutdown eventfd, closes every connection fd
  /// (including idle keep-alive ones blocked in the kernel — nothing here
  /// ever blocks in recv), then drains the worker pool with a deadline.
  void Stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }
  ServerStats stats() const;
  /// Per-tenant scheduler counters (empty when QoS is off). Safe from any
  /// thread; feeds the TenantQoS MetricReport.
  std::vector<qos::TenantStats> TenantQosStats() const;
  /// The loop's readiness mechanism, for environment stamps.
  const char* backend_name() const { return "epoll"; }

 private:
  struct Conn;

  void LoopMain();
  /// epoll_ctl(op) for `fd` with `events` under `tag`, counted in ctl_calls_.
  bool EpollCtl(int op, int fd, std::uint64_t tag, std::uint32_t events);
  /// Drains the kernel backlog with accept4 and registers each connection.
  void HandleAccept();
  void HandleConnEvent(std::uint64_t id, std::uint32_t events);
  /// Per-connection pump: flush output, then take/dispatch buffered
  /// requests, until blocked (EAGAIN), waiting on a worker, or closed.
  void ServiceConn(std::uint64_t id);
  void DispatchRequest(Conn& conn, Request request);
  /// Moves scheduler items to the worker pool while it has room. Returns
  /// conn ids that were overload-rejected instead (TrySubmit race); the
  /// caller must ServiceConn them from a safe (non-reentrant) point.
  std::vector<std::uint64_t> PumpScheduler();
  /// Queue-full 503 with Retry-After derived from backlog / drain rate
  /// (shared by the FIFO and per-tenant paths; never a constant).
  Response MakeOverloadResponse();
  void QueueResponse(Conn& conn, Response response, bool close_after);
  bool WriteSome(Conn& conn);
  void SyncInterest(Conn& conn);
  void CloseConn(std::uint64_t id);
  void HandleCompletions();
  /// Moves producer-pushed stream chunks from the wake channel into their
  /// connections' outboxes and flushes (see http/stream.hpp).
  void DrainStreamOps();
  void BeginStream(Conn& conn, const Response& response);
  void MarkStreamClosed(Conn& conn);
  void SweepIdle(std::chrono::steady_clock::time_point now);
  void EnterAcceptBackoff(int err);
  void RearmAcceptIfDue(std::chrono::steady_clock::time_point now);
  int LoopTimeoutMs(std::chrono::steady_clock::time_point now) const;
  void Wake();

  // --- set in Start(), read-only afterwards -------------------------------
  ServerOptions options_;
  ServerHandler handler_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: worker completions + shutdown
  int epoll_fd_ = -1;  // closed by Stop() only after the loop thread joined
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread loop_thread_;

  // --- QoS scheduler: written by the loop thread only; the mutex exists so
  // --- TenantQosStats() can read counters from other threads --------------
  mutable std::mutex sched_mu_;
  std::unique_ptr<qos::FairScheduler> scheduler_;  // null = FIFO dispatch
  qos::DrainRateEstimator drain_rate_;             // loop-thread-only
  // Tasks handed to the pool but not yet completed (loop-thread-only).
  // PumpScheduler keeps this at <= workers so the dispatch backlog waits in
  // the scheduler, in DRR order, instead of in the pool's FIFO.
  std::size_t qos_inflight_ = 0;

  // --- loop-thread-only state ---------------------------------------------
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listen fd, 1 = wake fd
  bool accept_registered_ = false;
  bool accept_paused_full_ = false;  // at max_connections
  bool in_accept_backoff_ = false;   // resource-exhaustion backoff active
  int accept_backoff_ms_ = 0;
  std::chrono::steady_clock::time_point accept_rearm_at_{};
  std::chrono::steady_clock::time_point next_idle_sweep_{};

  // --- worker -> loop completion channel ----------------------------------
  struct Completion {
    std::uint64_t conn_id;
    Response response;
    bool close_after;
  };
  std::mutex done_mu_;
  std::vector<Completion> done_;

  // --- producer -> loop stream channel (long-lived SSE connections) -------
  std::shared_ptr<StreamWriter::Channel> stream_channel_;

  // --- stats (relaxed atomics, updated by loop and workers) ---------------
  std::atomic<std::uint64_t> accepted_{0}, closed_{0}, served_{0},
      parse_errors_{0}, limit_rejections_{0}, overload_rejections_{0},
      idle_closed_{0}, accept_failures_{0}, accept_backoff_bursts_{0},
      recv_calls_{0}, send_calls_{0}, wait_calls_{0}, ctl_calls_{0},
      streams_opened_{0}, rate_limited_{0};
};

/// Blocking client against 127.0.0.1:port with a keep-alive connection pool:
/// an LRU of idle sockets to the endpoint is reused across Send() calls, so
/// manager poll loops and agent calls skip the per-request connect/teardown.
/// A reused socket the server has since closed (idle timeout, restart) is
/// retried once on a fresh connection. A socket that makes no progress for
/// `timeout_ms` (connect, send or receive) yields Status::Timeout instead of
/// wedging the caller forever (0 disables the bound). Thread-safe: the pool
/// is locked, and each in-flight request owns its socket exclusively.
class TcpClient : public HttpClient {
 public:
  explicit TcpClient(std::uint16_t port, int timeout_ms = 30000)
      : port_(port), timeout_ms_(timeout_ms) {}
  ~TcpClient() override;
  /// SendBatch with one exchange.
  Result<Response> Send(const Request& request) override;

  /// One request of a SendBatch and the client whose pool carries it.
  struct Exchange {
    TcpClient* client = nullptr;
    Request request;
    /// Held back this long before it is sent (injected latency); the rest of
    /// the batch proceeds meanwhile.
    int delay_ms = 0;
  };
  using OnResponse = std::function<void(std::size_t index, Result<Response> response)>;

  /// Writes every exchange's request on a pooled keep-alive socket of its
  /// client and reads all the responses in one poll() loop on the calling
  /// thread, handing each to `on_response` (with its index in `exchanges`)
  /// as it completes. Every exchange keeps Send's contract: one retry on a
  /// fresh connection when a pooled socket turns out stale, its client's
  /// timeout_ms bound, and the socket parked in the pool after a clean
  /// keep-alive exchange.
  static void SendBatch(std::vector<Exchange> exchanges, const OnResponse& on_response);

  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }
  int timeout_ms() const { return timeout_ms_; }

  /// Pool effectiveness counters: fresh connects vs pooled reuses.
  std::uint64_t connections_opened() const { return opened_.load(); }
  std::uint64_t connections_reused() const { return reused_.load(); }

  static constexpr std::size_t kMaxPooledConnections = 8;

 private:
  struct Leg;  // one exchange of a SendBatch in flight

  int AcquirePooled();
  void Release(int fd);
  /// Puts `leg` on a pooled socket, else starts a non-blocking connect.
  Status Open(Leg& leg);
  /// Makes a freshly connected socket blocking, bounded by timeout_ms.
  void Connected(int fd);
  /// Moves `leg` as far as its socket allows, without blocking unless it is
  /// `alone` in flight; the result once the exchange is over.
  std::optional<Result<Response>> Advance(Leg& leg, short revents, bool alone);

  std::uint16_t port_;
  int timeout_ms_;
  std::mutex pool_mu_;
  std::deque<int> idle_fds_;  // back = most recently used
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> reused_{0};
};

}  // namespace ofmf::http
