// The benchmark's one load driver: a single-threaded epoll closed loop over
// a few keep-alive connections. Each connection sends its next request only
// after the previous response was parsed (client-mode http::WireParser) and
// checked, which is how pollers, launchers and dashboards behave.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "http/message.hpp"

namespace perfbench {

/// One request as a workload generated it. `kind` is the workload's own op
/// classification (leaf GET, collection GET, PATCH, ...).
struct Op {
  int kind = 0;
  ofmf::http::Method method = ofmf::http::Method::kGet;
  std::string target;
  std::string body;  // JSON for POST/PATCH
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Serializes `op` as an HTTP/1.1 request. A nonzero `bench_seq` adds the
/// X-Bench-Seq header traced runs use to match handler and client times;
/// with 0 the bytes are exactly a production client's.
std::string WireRequest(const Op& op, std::uint64_t bench_seq);

inline constexpr const char* kBenchSeqHeader = "X-Bench-Seq";

/// One verified operation as the client saw it.
struct Sample {
  int kind = 0;
  std::uint64_t seq = 0;      // driver-assigned, unique within a run
  std::uint64_t send_ns = 0;  // first request byte handed to send()
  std::uint64_t recv_ns = 0;  // response fully parsed
  double us() const { return static_cast<double>(recv_ns - send_ns) / 1e3; }
};

struct DriverConfig {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  /// No request is sent after this instant (steady clock, ns); requests in
  /// flight finish.
  std::uint64_t deadline_ns = 0;
  /// Stop issuing after this many requests (0: no limit).
  std::uint64_t max_ops = 0;
  /// Traced runs: stamp X-Bench-Seq on every request.
  bool stamp_seq = false;
  std::uint64_t first_seq = 1;
  /// Self-test hook: the response to the op with this seq is truncated
  /// before it is checked.
  std::uint64_t corrupt_seq = 0;
  /// Called from the driver thread about every 100 ms.
  std::function<void()> tick;
};

/// The next request for connection `conn`.
using NextOp = std::function<Op(std::size_t conn)>;
/// Empty when `response` is the right answer to `op`, else why it is not.
using CheckOp = std::function<std::string(std::size_t conn, const Op& op,
                                          const ofmf::http::Response& response)>;

struct DriverResult {
  std::vector<Sample> samples;  // verified ops only; failed ops are not timed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::uint64_t next_seq = 0;         // first seq not used
};

DriverResult RunClosedLoop(const DriverConfig& config, const NextOp& next,
                           const CheckOp& check);

}  // namespace perfbench
