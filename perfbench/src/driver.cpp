#include "driver.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>

#include "bench.hpp"
#include "http/wire.hpp"

namespace perfbench {

namespace http = ofmf::http;

std::string WireRequest(const Op& op, std::uint64_t bench_seq) {
  std::string wire = http::to_string(op.method);
  wire += ' ';
  wire += op.target;
  wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto& [name, value] : op.headers) {
    wire += name + ": " + value + "\r\n";
  }
  if (bench_seq != 0) {
    wire += std::string(kBenchSeqHeader) + ": " + std::to_string(bench_seq) + "\r\n";
  }
  if (!op.body.empty()) {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(op.body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += op.body;
  return wire;
}

namespace {

constexpr int kStallMs = 30000;
constexpr std::size_t kMaxFailureReasons = 8;

struct Conn {
  int fd = -1;
  http::WireParser parser{http::WireParser::Mode::kResponse};
  bool busy = false;  // a request is in flight
  Op op;
  std::string wire;
  std::size_t out_off = 0;
  std::uint64_t seq = 0;
  std::uint64_t send_ns = 0;
  std::uint32_t mask = 0;
};

}  // namespace

DriverResult RunClosedLoop(const DriverConfig& config, const NextOp& next,
                           const CheckOp& check) {
  DriverResult result;
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    result.attempted = result.failed = 1;
    result.failures.push_back("epoll_create1 failed");
    return result;
  }
  std::vector<Conn> conns(config.connections);
  std::uint64_t next_seq = config.first_seq;

  const auto note_failure = [&](const std::string& why) {
    ++result.failed;
    if (result.failures.size() < kMaxFailureReasons) result.failures.push_back(why);
  };
  const auto set_mask = [&](std::size_t i, std::uint32_t want) {
    Conn& c = conns[i];
    if (c.mask == want) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = i;
    ::epoll_ctl(ep, c.mask == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, c.fd, &ev);
    c.mask = want;
  };
  const auto close_conn = [&](std::size_t i) {
    Conn& c = conns[i];
    if (c.fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
    }
    c.fd = -1;
    c.mask = 0;
    c.parser.Reset();
  };
  const auto open_conn = [&](std::size_t i) -> bool {
    Conn& c = conns[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config.port);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(c.fd);
      c.fd = -1;
      return false;
    }
    c.mask = 0;
    set_mask(i, EPOLLIN);
    return true;
  };
  // Pushes pending request bytes; false when the connection broke.
  const auto flush = [&](std::size_t i) -> bool {
    Conn& c = conns[i];
    while (c.out_off < c.wire.size()) {
      const ssize_t sent = ::send(c.fd, c.wire.data() + c.out_off, c.wire.size() - c.out_off,
                                  MSG_NOSIGNAL);
      if (sent > 0) {
        c.out_off += static_cast<std::size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_mask(i, EPOLLIN | EPOLLOUT);
        return true;
      }
      return false;
    }
    set_mask(i, EPOLLIN);
    return true;
  };
  // Starts connection i's next request; false once the run is over for it.
  const auto start_next = [&](std::size_t i) -> bool {
    Conn& c = conns[i];
    while (true) {
      c.busy = false;
      if (NowNs() >= config.deadline_ns ||
          (config.max_ops != 0 && result.attempted >= config.max_ops)) {
        close_conn(i);
        return false;
      }
      if (c.fd < 0 && !open_conn(i)) {
        ++result.attempted;
        note_failure("connect to port " + std::to_string(config.port) + " failed");
        return false;
      }
      c.op = next(i);
      c.seq = next_seq++;
      c.wire = WireRequest(c.op, config.stamp_seq ? c.seq : 0);
      c.out_off = 0;
      c.busy = true;
      ++result.attempted;
      c.send_ns = NowNs();
      if (flush(i)) return true;
      note_failure(c.op.target + ": send failed");
      close_conn(i);
    }
  };
  const auto complete = [&](std::size_t i, http::Response response) {
    Conn& c = conns[i];
    const std::uint64_t recv_ns = NowNs();
    if (c.seq == config.corrupt_seq) {
      const std::string body(response.body.view());
      response.body = body.substr(0, body.size() / 2);
      if (body.empty()) response.status = 0;
    }
    const std::string why = check(i, c.op, response);
    if (why.empty()) {
      result.samples.push_back(Sample{c.op.kind, c.seq, c.send_ns, recv_ns});
    } else {
      note_failure(std::string(http::to_string(c.op.method)) + " " + c.op.target + ": " + why);
    }
  };

  const std::uint64_t start_ns = NowNs();
  std::size_t active = 0;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (start_next(i)) ++active;
  }

  std::array<epoll_event, 64> events{};
  char buffer[65536];
  std::uint64_t last_tick_ns = start_ns;
  std::uint64_t last_event_ns = start_ns;
  while (active > 0) {
    const int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 100);
    const std::uint64_t now = NowNs();
    if (config.tick && now - last_tick_ns >= 100'000'000ull) {
      config.tick();
      last_tick_ns = now;
    }
    if (n <= 0) {
      if (now - last_event_ns > static_cast<std::uint64_t>(kStallMs) * 1'000'000ull) {
        for (std::size_t i = 0; i < conns.size(); ++i) {
          if (conns[i].busy) note_failure(conns[i].op.target + ": no response (stall)");
          close_conn(i);
        }
        break;
      }
      continue;
    }
    last_event_ns = now;
    for (int e = 0; e < n; ++e) {
      const std::size_t i = events[e].data.u64;
      Conn& c = conns[i];
      if (c.fd < 0 || !c.busy) continue;
      if ((events[e].events & EPOLLOUT) != 0 && !flush(i)) {
        note_failure(c.op.target + ": send failed");
        close_conn(i);
        if (!start_next(i)) --active;
        continue;
      }
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      bool closed = false;
      while (true) {
        const ssize_t got = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          c.parser.Feed(std::string_view(buffer, static_cast<std::size_t>(got)));
          if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        closed = true;
        break;
      }
      if (c.parser.HasMessage()) {
        auto response = c.parser.TakeResponse();
        if (!response.ok()) {
          note_failure(c.op.target + ": unparsable response");
          close_conn(i);
        } else {
          complete(i, std::move(*response));
          if (closed || c.parser.buffered_bytes() != 0) close_conn(i);
        }
        if (!start_next(i)) --active;
      } else if (closed || c.parser.Broken()) {
        note_failure(c.op.target + ": connection closed before a full response");
        close_conn(i);
        if (!start_next(i)) --active;
      }
    }
  }
  for (std::size_t i = 0; i < conns.size(); ++i) close_conn(i);
  ::close(ep);
  result.next_seq = next_seq;
  return result;
}

}  // namespace perfbench
