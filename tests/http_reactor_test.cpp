// Regression tests for the epoll-reactor TcpServer and the keep-alive
// TcpClient pool: the idle-keep-alive Stop() hang, the EMFILE accept spin,
// the unbounded request buffer, the broken-parse connection-discard bug, and
// stats() read across Stop(), plus pipelining/split-read/keep-alive-reuse/
// Stop-during-inflight and 1024-connection coverage.
// All of these run under the TSan/ASan CI jobs.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/qos.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"

namespace ofmf::http {
namespace {

using ::testing::HasSubstr;

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void SendAll(int fd, const std::string& wire) {
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
}

/// Reads responses off `fd` until `count` parsed or the peer closes.
std::vector<Response> ReadResponses(int fd, std::size_t count,
                                    std::size_t read_chunk = 4096) {
  WireParser parser(WireParser::Mode::kResponse);
  std::vector<Response> responses;
  std::vector<char> buffer(read_chunk);
  while (responses.size() < count) {
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n <= 0) break;
    parser.Feed(std::string_view(buffer.data(), static_cast<std::size_t>(n)));
    while (parser.HasMessage()) {
      auto response = parser.TakeResponse();
      if (!response.ok()) return responses;
      responses.push_back(*response);
    }
  }
  return responses;
}

ServerHandler EchoHandler() {
  return [](const Request& request) {
    return MakeTextResponse(200, "r:" + request.path);
  };
}

class ReactorTest : public ::testing::Test {};

// ------------------------------------------------- Stop() responsiveness ---

// Seed bug: connection threads blocked in ::recv on idle keep-alive
// connections; Stop() closed only the listen fd, then joined those threads
// forever. The reactor never blocks in recv, so Stop() must return promptly
// no matter how many idle keep-alive connections are open.
TEST_F(ReactorTest, StopReturnsPromptlyWithIdleKeepAliveConnections) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());

  // One connection that completed a keep-alive exchange, one that never
  // sent a byte — both sit idle in the server.
  const int active = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kGet, "/a");
  request.headers.Set("Connection", "keep-alive");
  SendAll(active, SerializeRequest(request));
  ASSERT_EQ(ReadResponses(active, 1).size(), 1u);
  const int silent = ConnectLoopback(server.port());
  // Wait until the loop has actually accepted the silent connection —
  // otherwise Stop() races the backlog and the kernel answers RST, not FIN.
  while (server.stats().connections_accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000);

  // Both fds observe the server-side close.
  char byte = 0;
  EXPECT_EQ(::recv(active, &byte, 1, 0), 0);
  EXPECT_EQ(::recv(silent, &byte, 1, 0), 0);
  ::close(active);
  ::close(silent);
}

TEST_F(ReactorTest, StopDuringInflightRequestDoesNotHangOrCrash) {
  TcpServer server;
  std::atomic<int> entered{0};
  ASSERT_TRUE(server
                  .Start([&](const Request&) {
                    entered.fetch_add(1);
                    std::this_thread::sleep_for(std::chrono::milliseconds(150));
                    return MakeTextResponse(200, "slow");
                  })
                  .ok());
  std::vector<std::thread> clients;
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      TcpClient client(server.port(), 2000);
      (void)client.Get("/slow");  // response or transport error; must not hang
      finished.fetch_add(1);
    });
  }
  while (entered.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 2000);
  for (auto& t : clients) t.join();
  EXPECT_EQ(finished.load(), 4);
}

// ------------------------------------------------------ accept() backoff ---

// Seed bug: AcceptLoop() `continue`d on every accept() failure, so a
// persistent EMFILE spun the accept thread at 100% CPU. The reactor must
// back off (bounded failure count) and recover once fds free up.
TEST_F(ReactorTest, AcceptBackoffUnderFdExhaustionAndRecovery) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());

  // Client socket first — once the fd table is full we cannot make one.
  const int client = ConnectLoopback(server.port());
  // Drain the accept of that first connection so the EMFILE window below
  // only ever sees the second, unacceptable connection.
  Request warm = MakeRequest(Method::kGet, "/warm");
  SendAll(client, SerializeRequest(warm));
  ASSERT_EQ(ReadResponses(client, 1).size(), 1u);
  const int pending = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);

  // Exhaust the process fd table (soft limit lowered so this stays cheap).
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 512;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hogs;
  while (true) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    hogs.push_back(fd);
  }

  // The kernel completes this handshake via the listen backlog; the
  // server's accept() then fails EMFILE for the whole window.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(pending, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ServerStats during = server.stats();
  EXPECT_GE(during.accept_backoff_bursts, 1u);
  // Without backoff a 300 ms EMFILE window records millions of failures;
  // with 10ms-doubling backoff it records a handful.
  EXPECT_LE(during.accept_failures, 30u);
  EXPECT_EQ(during.connections_accepted, 1u);

  // Free the fds: the next rearm must accept the pending connection.
  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  Request request = MakeRequest(Method::kGet, "/after");
  SendAll(pending, SerializeRequest(request));
  const std::vector<Response> responses = ReadResponses(pending, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "r:/after");
  ::close(pending);
  ::close(client);
  server.Stop();
}

// ------------------------------------------------------- request limits ---

TEST_F(ReactorTest, OversizedHeaderBlockGets431AndClose) {
  ServerOptions options;
  options.max_header_bytes = 1024;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());

  const int fd = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kGet, "/x");
  request.headers.Set("X-Padding", std::string(4096, 'p'));
  SendAll(fd, SerializeRequest(request));
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  EXPECT_EQ(responses[0].headers.Get("Connection"), "close");
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // connection closed
  ::close(fd);
  EXPECT_GE(server.stats().limit_rejections, 1u);
  server.Stop();
}

// A client streaming header bytes forever (no terminator) used to grow the
// parser buffer without bound; now the cap trips mid-stream.
TEST_F(ReactorTest, EndlessHeaderStreamIsCappedNotBuffered) {
  ServerOptions options;
  options.max_header_bytes = 2048;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());

  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "GET /x HTTP/1.1\r\n");
  for (int i = 0; i < 64; ++i) {
    const std::string line = "X-H" + std::to_string(i) + ": " + std::string(100, 'v') + "\r\n";
    if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) <= 0) break;  // server hung up
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, OversizedBodyGets413BeforeBufferingIt) {
  ServerOptions options;
  options.max_body_bytes = 1024;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());

  const int fd = ConnectLoopback(server.port());
  // Declare a 1 MiB body but send only the headers: the 413 must arrive
  // from the Content-Length alone.
  std::string head = "POST /x HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n";
  SendAll(fd, head);
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 413);
  EXPECT_EQ(responses[0].headers.Get("Connection"), "close");
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, RequestExactlyAtBodyLimitIsServed) {
  ServerOptions options;
  options.max_body_bytes = 1024;
  TcpServer server;
  std::atomic<std::size_t> seen_body{0};
  ASSERT_TRUE(server
                  .Start([&](const Request& request) {
                    seen_body.store(request.body.size());
                    return MakeTextResponse(200, "ok");
                  },
                  0, options)
                  .ok());
  const int fd = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kPost, "/x");
  request.body = std::string(1024, 'b');  // exactly the cap
  SendAll(fd, SerializeRequest(request));
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(seen_body.load(), 1024u);
  ::close(fd);
  server.Stop();
}

// Parser-level exactness: the caps are inclusive (== limit passes).
TEST_F(ReactorTest, WireParserLimitBoundariesAreExact) {
  Request request = MakeRequest(Method::kGet, "/x");
  const std::string wire = SerializeRequest(request);
  const std::size_t header_bytes = wire.size();  // no body: whole thing is header

  WireParser at_limit(WireParser::Mode::kRequest);
  at_limit.set_limits(header_bytes, 0);
  at_limit.Feed(wire);
  EXPECT_EQ(at_limit.overflow(), WireParser::Overflow::kNone);
  EXPECT_TRUE(at_limit.HasMessage());

  WireParser over_limit(WireParser::Mode::kRequest);
  over_limit.set_limits(header_bytes - 1, 0);
  over_limit.Feed(wire);
  EXPECT_EQ(over_limit.overflow(), WireParser::Overflow::kHeader);
  EXPECT_FALSE(over_limit.HasMessage());

  Request with_body = MakeRequest(Method::kPost, "/x");
  with_body.body = std::string(64, 'b');
  WireParser body_at(WireParser::Mode::kRequest);
  body_at.set_limits(0, 64);
  body_at.Feed(SerializeRequest(with_body));
  EXPECT_EQ(body_at.overflow(), WireParser::Overflow::kNone);
  EXPECT_TRUE(body_at.HasMessage());

  WireParser body_over(WireParser::Mode::kRequest);
  body_over.set_limits(0, 63);
  body_over.Feed(SerializeRequest(with_body));
  EXPECT_EQ(body_over.overflow(), WireParser::Overflow::kBody);
}

// ------------------------------------------------ parse-error discipline ---

// Seed bug: after a broken parse the connection kept its buffered bytes and
// close_after was only computed on the success path. The reactor must send
// one 400 with Connection: close and discard everything after the garbage.
TEST_F(ReactorTest, PipelinedGarbageAfterValidRequestDiscardsConnection) {
  TcpServer server;
  std::atomic<int> served{0};
  ASSERT_TRUE(server
                  .Start([&](const Request& request) {
                    served.fetch_add(1);
                    return MakeTextResponse(200, "r:" + request.path);
                  })
                  .ok());
  const int fd = ConnectLoopback(server.port());
  Request good = MakeRequest(Method::kGet, "/good");
  good.headers.Set("Connection", "keep-alive");
  // Garbage that frames like a message (has the blank-line terminator) but
  // fails the request-line parse, followed by a request that must NOT run.
  Request never = MakeRequest(Method::kGet, "/never");
  const std::string wire = SerializeRequest(good) + "BOGUS-LINE\r\n\r\n" +
                           SerializeRequest(never);
  SendAll(fd, wire);
  const std::vector<Response> responses = ReadResponses(fd, 3);
  ASSERT_EQ(responses.size(), 2u);  // 200, then 400, then close — no third
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "r:/good");
  EXPECT_EQ(responses[1].status, 400);
  EXPECT_EQ(responses[1].headers.Get("Connection"), "close");
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_EQ(served.load(), 1);  // /never was discarded with the connection

  // The server survives: a fresh connection still works.
  const int fresh = ConnectLoopback(server.port());
  SendAll(fresh, SerializeRequest(MakeRequest(Method::kGet, "/again")));
  EXPECT_EQ(ReadResponses(fresh, 1).size(), 1u);
  ::close(fresh);
  server.Stop();
}

// --------------------------------------------------- pipelining + reads ---

TEST_F(ReactorTest, TwoRequestsInOneSendAreServedInOrder) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());
  const int fd = ConnectLoopback(server.port());
  Request a = MakeRequest(Method::kGet, "/a");
  a.headers.Set("Connection", "keep-alive");
  Request b = MakeRequest(Method::kGet, "/b");
  SendAll(fd, SerializeRequest(a) + SerializeRequest(b));
  const std::vector<Response> responses = ReadResponses(fd, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "r:/a");
  EXPECT_EQ(responses[1].body, "r:/b");
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, ResponseSplitAcrossManySmallReadsParses) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const Request&) {
                    return MakeTextResponse(200, std::string(8192, 'x'));
                  })
                  .ok());
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, SerializeRequest(MakeRequest(Method::kGet, "/big")));
  // 7-byte reads: headers and body arrive in hundreds of fragments.
  const std::vector<Response> responses = ReadResponses(fd, 1, 7);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body.size(), 8192u);
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, KeepAliveServes100SequentialRequestsOnOneFd) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());
  const int fd = ConnectLoopback(server.port());
  for (int i = 0; i < 100; ++i) {
    Request request = MakeRequest(Method::kGet, "/seq/" + std::to_string(i));
    request.headers.Set("Connection", "keep-alive");
    SendAll(fd, SerializeRequest(request));
    const std::vector<Response> responses = ReadResponses(fd, 1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].body, "r:/seq/" + std::to_string(i));
  }
  ::close(fd);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_served, 100u);
  server.Stop();
}

// ---------------------------------------------------- client-side pool ---

TEST_F(ReactorTest, TcpClientPoolReusesOneConnection) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());
  TcpClient client(server.port());
  for (int i = 0; i < 100; ++i) {
    auto response = client.Get("/p/" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 1u);
  EXPECT_EQ(client.connections_reused(), 99u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  server.Stop();
}

TEST_F(ReactorTest, TcpClientRetriesOnceOnStalePooledConnection) {
  ServerOptions options;
  options.idle_timeout_ms = 50;  // server reaps the pooled fd between calls
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  TcpClient client(server.port());
  ASSERT_TRUE(client.Get("/one").ok());
  // Wait until the server's idle sweep has definitely closed the connection.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().idle_closed, 1u);
  auto response = client.Get("/two");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);  // stale fd detected, reconnected
  server.Stop();
}

TEST_F(ReactorTest, MaxRequestsPerConnectionForcesClose) {
  ServerOptions options;
  options.max_requests_per_connection = 2;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  const int fd = ConnectLoopback(server.port());
  Request request = MakeRequest(Method::kGet, "/x");
  request.headers.Set("Connection", "keep-alive");
  SendAll(fd, SerializeRequest(request));
  std::vector<Response> first = ReadResponses(fd, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].headers.Get("Connection"), "keep-alive");
  SendAll(fd, SerializeRequest(request));
  std::vector<Response> second = ReadResponses(fd, 1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].headers.Get("Connection"), "close");
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  const int fd = ConnectLoopback(server.port());
  // Never send a byte: the idle sweep must close us.
  char byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);  // blocks until server closes
  EXPECT_EQ(n, 0);
  EXPECT_GE(server.stats().idle_closed, 1u);
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, WorkerQueueFullAnswers503RetryAfter) {
  ServerOptions options;
  options.workers = 1;
  options.max_queued_requests = 1;
  TcpServer server;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> entered{0};
  ASSERT_TRUE(server
                  .Start([&](const Request&) {
                    entered.fetch_add(1);
                    gate.wait();
                    return MakeTextResponse(200, "done");
                  },
                  0, options)
                  .ok());
  // First request occupies the single worker.
  std::thread blocked([&] {
    TcpClient client(server.port(), 5000);
    auto response = client.Get("/block");
    EXPECT_TRUE(response.ok());
  });
  while (entered.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Second fills the queue slot.
  std::thread queued([&] {
    TcpClient client(server.port(), 5000);
    auto response = client.Get("/queued");
    EXPECT_TRUE(response.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Third must be refused immediately by the loop.
  TcpClient client(server.port(), 5000);
  auto refused = client.Get("/refused");
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, 503);
  // Retry-After is derived from queue depth / drain rate: a 2-deep backlog
  // against the fresh estimator's 100/s fallback rounds up to 1 s.
  EXPECT_EQ(refused->headers.Get("Retry-After"), "1");
  release.set_value();
  blocked.join();
  queued.join();
  EXPECT_GE(server.stats().overload_rejections, 1u);
  server.Stop();
}

// Regression for the hardcoded "Retry-After: 1": the overload hint must
// scale with the backlog, so clients shed behind a deep queue are told to
// come back later than clients shed behind a shallow one.
TEST_F(ReactorTest, OverloadRetryAfterScalesWithQueueDepth) {
  ServerOptions options;
  options.workers = 1;
  options.max_queued_requests = 150;
  options.max_connections = 400;
  TcpServer server;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> entered{0};
  ASSERT_TRUE(server
                  .Start([&](const Request&) {
                    entered.fetch_add(1);
                    gate.wait();
                    return MakeTextResponse(200, "done");
                  },
                  0, options)
                  .ok());
  // Park one request on the single worker, then pile ~150 more into the
  // dispatch queue from individual connections.
  std::vector<int> fds;
  for (int i = 0; i < 151; ++i) {
    const int fd = ConnectLoopback(server.port());
    SendAll(fd, SerializeRequest(MakeRequest(Method::kGet, "/pile")));
    fds.push_back(fd);
    if (i == 0) {
      while (entered.load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  // Let the loop ingest the backlog, then get shed at full depth: with ~150
  // queued against the 100/s fallback drain rate the derived hint must
  // exceed the shallow-queue value of 1 s.
  Response refused;
  for (int attempt = 0; attempt < 200 && refused.status != 503; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    TcpClient client(server.port(), 5000);
    auto response = client.Get("/refused");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    refused = *response;
  }
  ASSERT_EQ(refused.status, 503);
  EXPECT_GE(std::atoi(refused.headers.GetOr("Retry-After", "0").c_str()), 2);
  release.set_value();
  for (const int fd : fds) ::close(fd);
  server.Stop();
}

// End-to-end token-bucket admission: a tenant over its rate gets 429 with a
// Retry-After derived from refill time — and successive rejections quote
// non-decreasing (and eventually growing) waits, never one constant.
TEST_F(ReactorTest, QosRateLimitBreachAnswers429WithDerivedRetryAfter) {
  ServerOptions options;
  options.tenant_classifier = [](const Request& request) {
    qos::TenantSpec spec;
    spec.id = request.headers.GetOr("X-Tenant", "default");
    if (spec.id == "limited") {
      spec.rate_rps = 1.0;
      spec.burst = 1.0;
    }
    return spec;
  };
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  TcpClient client(server.port(), 5000);
  Request request = MakeRequest(Method::kGet, "/limited");
  request.headers.Set("X-Tenant", "limited");
  auto first = client.Send(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  std::vector<int> retry_afters;
  for (int i = 0; i < 4; ++i) {
    auto rejected = client.Send(request);
    ASSERT_TRUE(rejected.ok());
    ASSERT_EQ(rejected->status, 429) << "request " << i;
    const std::string header = rejected->headers.GetOr("Retry-After", "");
    ASSERT_FALSE(header.empty());
    retry_afters.push_back(std::atoi(header.c_str()));
  }
  for (std::size_t i = 1; i < retry_afters.size(); ++i) {
    EXPECT_GE(retry_afters[i], retry_afters[i - 1]);
  }
  EXPECT_GT(retry_afters.back(), retry_afters.front());
  // An unlimited tenant on the same server is untouched.
  Request open = MakeRequest(Method::kGet, "/open");
  open.headers.Set("X-Tenant", "open");
  auto fine = client.Send(open);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->status, 200);
  EXPECT_GE(server.stats().rate_limited_rejections, 4u);
  const auto tenants = server.TenantQosStats();
  bool saw_limited = false;
  for (const auto& tenant : tenants) {
    if (tenant.id == "limited") {
      saw_limited = true;
      EXPECT_GE(tenant.rate_limited, 4u);
    }
  }
  EXPECT_TRUE(saw_limited);
  server.Stop();
}

// With the classifier installed, requests flow through the DRR scheduler:
// every request from every tenant still completes (no starvation, no loss).
TEST_F(ReactorTest, QosSchedulerCompletesAllTenantsRequests) {
  ServerOptions options;
  options.workers = 2;
  options.tenant_classifier = [](const Request& request) {
    qos::TenantSpec spec;
    spec.id = request.headers.GetOr("X-Tenant", "default");
    spec.weight = spec.id == "heavy" ? 4 : 1;
    return spec;
  };
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      TcpClient client(server.port(), 5000);
      Request request = MakeRequest(Method::kGet, "/work");
      request.headers.Set("X-Tenant", t == 0 ? "heavy" : "light" + std::to_string(t));
      for (int i = 0; i < 25; ++i) {
        auto response = client.Send(request);
        if (response.ok() && response->status == 200) completed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(completed.load(), 75);
  const auto tenants = server.TenantQosStats();
  EXPECT_GE(tenants.size(), 3u);
  std::uint64_t dispatched = 0;
  for (const auto& tenant : tenants) dispatched += tenant.dispatched;
  EXPECT_EQ(dispatched, 75u);
  server.Stop();
}

// Weighted-fair dispatch holds a flood's backlog in the scheduler, not in the
// pool's FIFO: with one worker busy and 8 flood requests queued behind it, a
// victim with 4x the weight runs no later than third. A pump that fed the
// pool past one task per worker would run it tenth.
TEST_F(ReactorTest, QosVictimOvertakesAQueuedFloodBacklog) {
  ServerOptions options;
  options.workers = 1;
  options.tenant_classifier = [](const Request& request) {
    qos::TenantSpec spec;
    spec.id = request.headers.GetOr("X-Tenant", "default");
    spec.weight = spec.id == "victim" ? 4 : 1;
    return spec;
  };
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex order_mu;
  std::vector<std::string> order;
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([&](const Request& request) {
                    {
                      std::lock_guard<std::mutex> lock(order_mu);
                      order.push_back(request.headers.GetOr("X-Tenant", ""));
                    }
                    gate.wait();
                    return MakeTextResponse(200, "done");
                  },
                  0, options)
                  .ok());
  std::vector<std::thread> clients;
  const auto send = [&](const std::string& tenant) {
    clients.emplace_back([&server, tenant] {
      TcpClient client(server.port(), 10000);
      Request request = MakeRequest(Method::kGet, "/" + tenant);
      request.headers.Set("X-Tenant", tenant);
      auto response = client.Send(request);
      EXPECT_TRUE(response.ok() && response->status == 200) << tenant;
    });
  };
  const auto admitted = [&server](const std::string& tenant, std::uint64_t count) {
    for (int spin = 0; spin < 5000; ++spin) {
      for (const qos::TenantStats& stats : server.TenantQosStats()) {
        if (stats.id == tenant && stats.admitted >= count) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  for (int i = 0; i < 9; ++i) send("flood");
  EXPECT_TRUE(admitted("flood", 9));
  send("victim");
  EXPECT_TRUE(admitted("victim", 1));
  release.set_value();
  for (std::thread& client : clients) client.join();
  server.Stop();
  ASSERT_EQ(order.size(), 10u);
  EXPECT_LE(std::find(order.begin(), order.end(), "victim") - order.begin(), 2)
      << "the victim ran behind the flood's backlog";
}

// A half-closed client (shutdown(SHUT_WR) after the request) still gets its
// response: EOF while a request is in flight must not kill the connection.
TEST_F(ReactorTest, HalfCloseAfterRequestStillGetsResponse) {
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const Request&) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(30));
                    return MakeTextResponse(200, "late");
                  })
                  .ok());
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, SerializeRequest(MakeRequest(Method::kGet, "/halfclose")));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::vector<Response> responses = ReadResponses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "late");
  ::close(fd);
  server.Stop();
}

TEST_F(ReactorTest, ConcurrentKeepAliveClientsUnderChurn) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      TcpClient client(server.port());
      for (int i = 0; i < 50; ++i) {
        auto response = client.Get("/c/" + std::to_string(t) + "/" + std::to_string(i));
        if (response.ok() && response->status == 200) successes.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 8 * 50);
  // Pooling means connection count is bounded by the client count, not the
  // request count.
  EXPECT_LE(server.stats().connections_accepted, 16u);
  server.Stop();
}

// 1024 keep-alive connections held open at once, each serving GETs in
// sequence, with no error, shed or limit rejection.
TEST_F(ReactorTest, Serves1024ConcurrentKeepAliveConnections) {
  constexpr std::size_t kConns = 1024;
  constexpr int kRequestsPerConn = 4;
  // Both ends of every connection live in this process.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const rlim_t needed = 2 * kConns + 128;
  if (saved.rlim_max != RLIM_INFINITY && saved.rlim_max < needed) {
    GTEST_SKIP() << "hard RLIMIT_NOFILE " << saved.rlim_max << " is below " << needed;
  }
  rlimit raised = saved;
  if (raised.rlim_cur != RLIM_INFINITY && raised.rlim_cur < needed) raised.rlim_cur = needed;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &raised), 0);

  ServerOptions options;
  options.max_connections = 4096;
  options.max_queued_requests = 16384;
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler(), 0, options).ok());
  std::vector<int> fds;
  for (std::size_t i = 0; i < kConns; ++i) {
    const int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    // A lost response fails the read below instead of hanging the test.
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  }

  // Each round puts one request in flight on every connection, then reads
  // every answer: 1024 requests outstanding at once, four times over.
  for (int round = 0; round < kRequestsPerConn; ++round) {
    for (std::size_t i = 0; i < kConns; ++i) {
      Request request = MakeRequest(Method::kGet, "/c/" + std::to_string(i) + "/" +
                                                      std::to_string(round));
      request.headers.Set("Connection", "keep-alive");
      SendAll(fds[i], SerializeRequest(request));
    }
    for (std::size_t i = 0; i < kConns; ++i) {
      const std::vector<Response> responses = ReadResponses(fds[i], 1);
      ASSERT_EQ(responses.size(), 1u) << "connection " << i << " round " << round;
      EXPECT_EQ(responses[0].status, 200);
      EXPECT_EQ(responses[0].body,
                "r:/c/" + std::to_string(i) + "/" + std::to_string(round));
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, kConns);
  EXPECT_EQ(stats.connections_closed, 0u);  // every connection stayed open
  EXPECT_EQ(stats.requests_served, kConns * kRequestsPerConn);
  EXPECT_EQ(stats.overload_rejections, 0u);
  EXPECT_EQ(stats.limit_rejections, 0u);
  EXPECT_EQ(stats.parse_errors, 0u);
  for (const int fd : fds) ::close(fd);
  server.Stop();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
}

// ServerStats promises exact values after Stop(). The epoll call counts used
// to live in an object Stop() destroyed, so they read 0 afterwards.
TEST_F(ReactorTest, EpollCallCountsSurviveStop) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());
  TcpClient client(server.port());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Get("/n/" + std::to_string(i)).ok());
  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 3u);
  EXPECT_GE(stats.backend_wait_calls, 1u);
  EXPECT_GE(stats.backend_ctl_calls, 1u);
}

// stats() and backend_name() are safe from any thread, Stop() included: a
// reader polling them while the loop shuts down sees monotonic counters (the
// TSan job checks the reads race with nothing).
TEST_F(ReactorTest, StatsAndBackendNameAreSafeAcrossStop) {
  TcpServer server;
  ASSERT_TRUE(server.Start(EchoHandler()).ok());
  TcpClient client(server.port());
  ASSERT_TRUE(client.Get("/warm").ok());
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    std::uint64_t last_wait = 0;
    while (!done.load()) {
      const ServerStats stats = server.stats();
      EXPECT_STREQ(server.backend_name(), "epoll");
      EXPECT_GE(stats.backend_wait_calls, last_wait);
      last_wait = stats.backend_wait_calls;
      reads.fetch_add(1);
    }
  });
  while (reads.load() < 100) std::this_thread::yield();
  server.Stop();
  const int after_stop = reads.load() + 100;
  while (reads.load() < after_stop) std::this_thread::yield();
  done.store(true);
  reader.join();
  EXPECT_GE(server.stats().backend_wait_calls, 1u);
}

}  // namespace
}  // namespace ofmf::http
