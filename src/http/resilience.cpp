#include "http/resilience.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <thread>

#include "common/clock.hpp"
#include "common/trace.hpp"

namespace ofmf::http {
namespace {

/// A Retry-After value (delta-seconds) in milliseconds. A value that is not
/// a non-negative integer reads as 0; one too large for int64 milliseconds
/// saturates, so the caller's budget check gives up instead of sleeping.
std::int64_t RetryAfterMs(std::string_view value) {
  constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
  std::uint64_t seconds = 0;
  const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), seconds);
  if (ec == std::errc::result_out_of_range) return kForever;
  if (ec != std::errc() || end != value.data() + value.size()) return 0;
  if (seconds > static_cast<std::uint64_t>(kForever / 1000)) return kForever;
  return static_cast<std::int64_t>(seconds) * 1000;
}

}  // namespace

FaultyClient::FaultyClient(std::unique_ptr<HttpClient> inner,
                           std::shared_ptr<FaultInjector> faults, std::string point)
    : inner_(std::move(inner)), faults_(std::move(faults)), point_(std::move(point)) {}

Result<Response> FaultyClient::Send(const Request& request) {
  if (faults_ == nullptr || !faults_->enabled()) return inner_->Send(request);
  const FaultDecision decision = faults_->Evaluate(point_);
  switch (decision.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kDropConnection:
    case FaultKind::kCrash:
      return Status::Unavailable("injected fault at " + point_ + ": " +
                                 to_string(decision.kind));
    case FaultKind::kDropResponse: {
      // The peer applies the request; the response is lost on the wire. This
      // is the case that makes idempotency keys load-bearing.
      (void)inner_->Send(request);
      return Status::Unavailable("injected fault at " + point_ + ": response lost");
    }
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(decision.delay_ms));
      break;
    case FaultKind::kErrorStatus: {
      Response overloaded = MakeTextResponse(decision.http_status,
                                             "injected fault at " + point_);
      overloaded.headers.Set("Retry-After", "0");
      return overloaded;
    }
    case FaultKind::kTornWrite:
    case FaultKind::kShortFsync:
      break;  // storage-only faults; meaningless on the wire
  }
  return inner_->Send(request);
}

RetryingClient::RetryingClient(std::unique_ptr<HttpClient> inner, RetryPolicy policy)
    : inner_(std::move(inner)), policy_(policy), rng_(policy.jitter_seed) {}

bool RetryingClient::MethodIdempotent(Method method) {
  switch (method) {
    case Method::kGet:
    case Method::kHead:
    case Method::kPut:
    case Method::kDelete:
    case Method::kOptions:
      return true;
    case Method::kPost:
    case Method::kPatch:
      return false;
  }
  return false;
}

bool RetryingClient::RetryableStatus(int status) {
  return status == 429 || status == 502 || status == 503 || status == 504;
}

Result<Response> RetryingClient::Send(const Request& request) {
  // Non-idempotent requests retry only under an idempotency key the server
  // can dedupe on; everything else gets exactly one attempt.
  const bool safe_to_retry =
      MethodIdempotent(request.method) || request.headers.Contains("X-Request-Id");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }

  Stopwatch budget;
  for (int attempt = 1;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.attempts;
      if (attempt > 1) ++stats_.retries;
    }
    // Each attempt is its own span, so a retried call shows up as sibling
    // spans under the caller; re-stamping X-Span-Id makes the server side
    // parent under the attempt, not the original request.
    Result<Response> result = [&]() -> Result<Response> {
      trace::Span attempt_span("retry.attempt");
      if (!attempt_span.active()) return inner_->Send(request);
      attempt_span.Note("attempt " + std::to_string(attempt));
      Request stamped = request;
      stamped.headers.Set(trace::kTraceIdHeader,
                          trace::IdToHex(attempt_span.context().trace_id));
      stamped.headers.Set(trace::kSpanIdHeader,
                          trace::IdToHex(attempt_span.context().span_id));
      Result<Response> sent = inner_->Send(stamped);
      if (!sent.ok()) {
        attempt_span.Note("error: " + sent.status().message());
      } else if (RetryableStatus(sent->status)) {
        attempt_span.Note("retryable status " + std::to_string(sent->status));
      }
      return sent;
    }();

    bool transient = false;
    std::int64_t retry_after_ms = 0;
    if (!result.ok()) {
      const ErrorCode code = result.status().code();
      transient = code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout;
      if (transient) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.transport_errors;
      }
    } else if (RetryableStatus(result->status)) {
      transient = true;
      retry_after_ms = RetryAfterMs(result->headers.GetOr("Retry-After", "0"));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.retryable_statuses;
    }
    if (!transient || !safe_to_retry) return result;
    if (attempt >= policy_.max_attempts) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.exhausted_attempts;
      return result;
    }

    // Exponential backoff, full jitter: Uniform(0, min(max, base * 2^k)).
    // ldexp keeps large attempt counts defined (saturates toward +inf and
    // the min() caps it) where an int shift by >= 31 would be UB.
    const double cap = std::min<double>(
        policy_.max_backoff_ms,
        std::ldexp(static_cast<double>(policy_.base_backoff_ms), attempt - 1));
    std::int64_t sleep_ms;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleep_ms = static_cast<std::int64_t>(rng_.Uniform(0.0, cap + 1.0));
    }
    sleep_ms = std::max(sleep_ms, retry_after_ms);

    const double elapsed_ms = budget.ElapsedSeconds() * 1000.0;
    if (elapsed_ms + static_cast<double>(sleep_ms) >= policy_.deadline_ms) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_exhausted;
      return result;
    }
    if (sleep_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

RetryStats RetryingClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ofmf::http
