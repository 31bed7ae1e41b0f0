// Transport resilience decorators. Both wrap any HttpClient, so the same
// stack composes over the in-process transport (tests, chaos harness) and
// the TCP transport (examples):
//
//   OfmfClient -> RetryingClient -> FaultyClient -> {InProcess,Tcp}Client
//
// FaultyClient injects transport faults decided by a shared FaultInjector;
// RetryingClient retries transient failures with exponential backoff + full
// jitter under a per-request deadline budget. Neither allocates nor locks on
// the happy path beyond one counter update, so the undecorated read path is
// untouched and the decorated one stays cheap.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/faults.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "http/server.hpp"

namespace ofmf::http {

/// Injects faults at the transport boundary. With a null injector (or a
/// globally disabled one) every request passes straight through.
class FaultyClient : public HttpClient {
 public:
  FaultyClient(std::unique_ptr<HttpClient> inner, std::shared_ptr<FaultInjector> faults,
               std::string point = "http.client");

  Result<Response> Send(const Request& request) override;

  const std::string& point() const { return point_; }

 private:
  std::unique_ptr<HttpClient> inner_;
  std::shared_ptr<FaultInjector> faults_;
  std::string point_;
};

/// Full-jitter exponential backoff, the one schedule every retry loop uses:
/// the wait before retry k (k = 1 after the first failed attempt) is
/// Uniform(0, cap) with cap = min(max_ms, base_ms * 2^(k-1)). Any k >= 1 is
/// defined; a huge k saturates at max_ms.
double BackoffCapMs(int base_ms, int max_ms, int k);

struct RetryPolicy {
  int max_attempts = 4;
  int base_backoff_ms = 5;    // retry k sleeps Uniform(0, BackoffCapMs(...))
  int max_backoff_ms = 250;
  int deadline_ms = 2000;     // total budget: attempts + sleeps
  std::uint64_t jitter_seed = 0x5EEDull;
};

struct RetryStats {
  std::uint64_t requests = 0;            // Send() calls
  std::uint64_t attempts = 0;            // inner Send() calls
  std::uint64_t retries = 0;             // attempts beyond the first
  std::uint64_t transport_errors = 0;    // Unavailable/Timeout from the wire
  std::uint64_t retryable_statuses = 0;  // 429/502/503/504 responses seen
  std::uint64_t deadline_exhausted = 0;  // gave up because the budget ran out
  std::uint64_t exhausted_attempts = 0;  // gave up after max_attempts
};

/// Retries transient failures: transport-level Unavailable/Timeout and HTTP
/// 429/502/503/504 (honouring Retry-After). Idempotent methods (GET, HEAD,
/// PUT, DELETE, OPTIONS) retry automatically; POST and PATCH retry only when
/// the request carries an X-Request-Id idempotency key (the OFMF dedupes
/// replays server-side, making compose retries safe).
class RetryingClient : public HttpClient {
 public:
  explicit RetryingClient(std::unique_ptr<HttpClient> inner, RetryPolicy policy = {});

  Result<Response> Send(const Request& request) override;

  RetryStats stats() const;
  const RetryPolicy& policy() const { return policy_; }

 private:
  static bool MethodIdempotent(Method method);
  static bool RetryableStatus(int status);

  std::unique_ptr<HttpClient> inner_;
  RetryPolicy policy_;
  mutable std::mutex mu_;
  Rng rng_;
  RetryStats stats_;
};

}  // namespace ofmf::http
