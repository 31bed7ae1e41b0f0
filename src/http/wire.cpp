#include "http/wire.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/strings.hpp"
#include "http/uri.hpp"

namespace ofmf::http {
namespace {

std::atomic<std::uint64_t> g_body_bytes_copied{0};
std::atomic<std::uint64_t> g_body_copies{0};
std::atomic<std::uint64_t> g_zero_copy_bodies{0};

/// Records an intentional body copy.
void CountBodyCopy(std::size_t bytes) {
  g_body_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  g_body_copies.fetch_add(1, std::memory_order_relaxed);
}

std::size_t HeaderBlockSize(const HeaderMap& headers) {
  std::size_t total = 0;
  for (const auto& [name, value] : headers.entries()) {
    total += name.size() + value.size() + 4;  // ": " + "\r\n"
  }
  return total + 32;  // slack for a synthesized Content-Length line
}

void AppendHeaders(std::string& out, const HeaderMap& headers, std::size_t body_size,
                   bool skip_connection) {
  bool has_length = false;
  for (const auto& [name, value] : headers.entries()) {
    if (skip_connection && strings::EqualsIgnoreCase(name, "Connection")) continue;
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
    if (strings::EqualsIgnoreCase(name, "Content-Length")) has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: ";
    out += std::to_string(body_size);
    out += "\r\n";
  }
}

void AppendResponseStatusLine(std::string& out, int status) {
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += ReasonPhrase(status);
  out += "\r\n";
}

Result<HeaderMap> ParseHeaderBlock(std::string_view block) {
  HeaderMap headers;
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed header line");
    }
    const std::string name(strings::Trim(line.substr(0, colon)));
    const std::string value(strings::Trim(line.substr(colon + 1)));
    if (name.empty()) return Status::InvalidArgument("empty header name");
    headers.Add(name, value);
  }
  return headers;
}

}  // namespace

WireCopyStats GetWireCopyStats() {
  WireCopyStats stats;
  stats.body_bytes_copied = g_body_bytes_copied.load(std::memory_order_relaxed);
  stats.body_copies = g_body_copies.load(std::memory_order_relaxed);
  stats.zero_copy_bodies = g_zero_copy_bodies.load(std::memory_order_relaxed);
  return stats;
}

void ResetWireCopyStats() {
  g_body_bytes_copied.store(0, std::memory_order_relaxed);
  g_body_copies.store(0, std::memory_order_relaxed);
  g_zero_copy_bodies.store(0, std::memory_order_relaxed);
}

std::string SerializeRequestHead(const Request& request) {
  const std::string& target = request.target.empty() ? request.path : request.target;
  std::string out;
  out.reserve(16 + target.size() + HeaderBlockSize(request.headers));
  out += to_string(request.method);
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\n";
  AppendHeaders(out, request.headers, request.body.size(), /*skip_connection=*/false);
  out += "\r\n";
  return out;
}

std::string SerializeRequest(const Request& request) {
  const std::string& target = request.target.empty() ? request.path : request.target;
  std::string out;
  out.reserve(16 + target.size() + HeaderBlockSize(request.headers) +
              request.body.size());
  out += to_string(request.method);
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\n";
  AppendHeaders(out, request.headers, request.body.size(), /*skip_connection=*/false);
  out += "\r\n";
  if (!request.body.empty()) {
    CountBodyCopy(request.body.size());
    out += request.body.view();
  }
  return out;
}

std::string SerializeResponseHead(const Response& response, std::size_t body_size) {
  std::string out;
  out.reserve(32 + HeaderBlockSize(response.headers));
  AppendResponseStatusLine(out, response.status);
  AppendHeaders(out, response.headers, body_size, /*skip_connection=*/true);
  return out;
}

std::string SerializeResponse(const Response& response) {
  std::string out;
  out.reserve(32 + HeaderBlockSize(response.headers) + response.body.size());
  AppendResponseStatusLine(out, response.status);
  AppendHeaders(out, response.headers, response.body.size(),
                /*skip_connection=*/false);
  out += "\r\n";
  if (!response.body.empty()) {
    CountBodyCopy(response.body.size());
    out += response.body.view();
  }
  return out;
}

void WireParser::Feed(std::string_view bytes) {
  if (overflow_ != Overflow::kNone) return;  // doomed connection: cap memory
  if (bytes.empty()) return;
  std::size_t capacity = 0;
  char* dst = BeginFill(bytes.size(), &capacity);
  std::memcpy(dst, bytes.data(), bytes.size());
  CommitFill(bytes.size());
}

char* WireParser::BeginFill(std::size_t min_bytes, std::size_t* capacity) {
  const std::size_t needed = len_ + min_bytes;
  if (!slab_) {
    slab_ = common::BufferPool::Instance().Acquire(needed);
  } else if (slab_->size() < needed) {
    common::BufferPool::Slab bigger = common::BufferPool::Instance().Acquire(needed);
    if (len_ > 0) std::memcpy(bigger->data(), slab_->data(), len_);
    slab_ = std::move(bigger);
  }
  *capacity = slab_->size() - len_;
  return slab_->data() + len_;
}

void WireParser::CommitFill(std::size_t n) {
  if (overflow_ != Overflow::kNone) {
    // Feed() never gets here, but a transport that filled before checking
    // must not grow a doomed connection's buffer.
    len_ = 0;
    return;
  }
  len_ += n;
  Reframe();
}

void WireParser::Reframe() {
  if (overflow_ != Overflow::kNone) return;
  const std::string_view buf = buffered();
  if (!framed_) {
    // Resume the terminator search just before the previous end so a
    // "\r\n\r\n" split across Feed() calls is still found.
    const std::size_t from = scan_pos_ > 3 ? scan_pos_ - 3 : 0;
    const std::size_t end = buf.find("\r\n\r\n", from);
    if (end == std::string_view::npos) {
      scan_pos_ = buf.size();
      if (max_header_bytes_ != 0 && buf.size() > max_header_bytes_) {
        overflow_ = Overflow::kHeader;
        len_ = 0;
        slab_.reset();
      }
      return;
    }
    header_end_ = end;
    framed_ = true;
    // Scan the header block for Content-Length (case-insensitive).
    content_length_ = 0;
    const std::string_view block = buf.substr(0, header_end_);
    std::size_t pos = block.find("\r\n");
    while (pos != std::string_view::npos && pos < block.size()) {
      std::size_t eol = block.find("\r\n", pos + 2);
      if (eol == std::string_view::npos) eol = block.size();
      const std::string_view line = block.substr(pos + 2, eol - pos - 2);
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        const std::string name(strings::Trim(line.substr(0, colon)));
        if (strings::EqualsIgnoreCase(name, "Content-Length")) {
          const std::string value(strings::Trim(line.substr(colon + 1)));
          content_length_ = std::strtoull(value.c_str(), nullptr, 10);
        }
      }
      pos = eol;
    }
  }
  if (max_header_bytes_ != 0 && header_end_ + 4 > max_header_bytes_) {
    overflow_ = Overflow::kHeader;
    len_ = 0;
    slab_.reset();
    return;
  }
  const bool bodyless = mode_ == Mode::kResponse && bodyless_response_;
  if (!bodyless && max_body_bytes_ != 0 && content_length_ > max_body_bytes_) {
    overflow_ = Overflow::kBody;
    len_ = 0;
    slab_.reset();
  }
}

bool WireParser::HasMessage() const {
  if (!framed_) return false;
  const std::size_t body = mode_ == Mode::kResponse && bodyless_response_
                               ? 0
                               : content_length_;
  return len_ >= header_end_ + 4 + body;
}

void WireParser::Reset() {
  slab_.reset();
  len_ = 0;
  broken_ = false;
  overflow_ = Overflow::kNone;
  framed_ = false;
  header_end_ = 0;
  content_length_ = 0;
  scan_pos_ = 0;
}

void WireParser::ConsumeFront(std::size_t n) {
  const std::size_t tail = len_ - n;
  if (slab_ && slab_->size() > common::BufferPool::kMinSlabBytes &&
      tail * 4 <= slab_->size()) {
    // Eager compaction: the slab grew for a burst message; move the (small)
    // leftover to a right-sized slab so a long-lived keep-alive connection
    // doesn't pin peak-request memory until its next large message.
    common::BufferPool::Slab fresh = common::BufferPool::Instance().Acquire(
        tail > 0 ? tail : std::size_t{1});
    if (tail > 0) std::memcpy(fresh->data(), slab_->data() + n, tail);
    slab_ = std::move(fresh);
  } else if (tail > 0) {
    std::memmove(slab_->data(), slab_->data() + n, tail);
  }
  len_ = tail;
}

void WireParser::ExtractBody(Body* out, std::size_t body_len) {
  const std::size_t msg_end = header_end_ + 4 + body_len;
  if (body_len >= kZeroCopyBodyBytes) {
    // Relinquish the slab to the message: the Body aliases the slab's
    // control block, so the pool gets it back only when the last view
    // drops. The parser restarts on a fresh slab, copying just the
    // pipelined tail (usually zero bytes).
    std::shared_ptr<const std::string> frozen = slab_;
    const std::size_t tail = len_ - msg_end;
    common::BufferPool::Slab fresh = common::BufferPool::Instance().Acquire(
        tail > 0 ? tail : std::size_t{1});
    if (tail > 0) std::memcpy(fresh->data(), frozen->data() + msg_end, tail);
    slab_ = std::move(fresh);
    len_ = tail;
    *out = Body(std::move(frozen), header_end_ + 4, body_len);
    g_zero_copy_bodies.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (body_len > 0) {
      CountBodyCopy(body_len);
      *out = Body(std::string(slab_->data() + header_end_ + 4, body_len));
    }
    ConsumeFront(msg_end);
  }
  framed_ = false;
  scan_pos_ = 0;
  Reframe();  // leftover pipelined bytes may already frame the next message
}

Result<Request> WireParser::TakeRequest() {
  if (!HasMessage()) {
    return Status::FailedPrecondition("no complete message buffered");
  }
  const std::string_view head = buffered().substr(0, header_end_);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view start_line = head.substr(0, line_end);
  const std::vector<std::string> parts = strings::Split(start_line, ' ');
  if (parts.size() != 3 || !strings::StartsWith(parts[2], "HTTP/1.")) {
    broken_ = true;
    return Status::InvalidArgument("malformed request line: " + std::string(start_line));
  }
  const std::optional<Method> method = ParseMethod(parts[0]);
  if (!method) {
    broken_ = true;
    return Status::InvalidArgument("unknown method: " + parts[0]);
  }
  Request request = MakeRequest(*method, parts[1]);
  auto headers = ParseHeaderBlock(
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2));
  if (!headers.ok()) {
    broken_ = true;
    return headers.status();
  }
  request.headers = std::move(*headers);
  ExtractBody(&request.body, content_length_);
  return request;
}

Result<Response> WireParser::TakeResponse() {
  if (!HasMessage()) {
    return Status::FailedPrecondition("no complete message buffered");
  }
  const std::size_t body_len = bodyless_response_ ? 0 : content_length_;
  const std::string_view head = buffered().substr(0, header_end_);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view start_line = head.substr(0, line_end);
  const std::vector<std::string> parts = strings::Split(start_line, ' ');
  if (parts.size() < 2 || !strings::StartsWith(parts[0], "HTTP/1.")) {
    broken_ = true;
    return Status::InvalidArgument("malformed status line: " + std::string(start_line));
  }
  // Exactly three ASCII digits: no sign, no padding, nothing trailing.
  const std::string& code = parts[1];
  Response response;
  if (code.size() != 3 || !strings::IsDigits(code) ||
      std::from_chars(code.data(), code.data() + code.size(), response.status).ec !=
          std::errc() ||
      response.status < 100 || response.status > 599) {
    broken_ = true;
    return Status::InvalidArgument("bad status code: " + parts[1]);
  }
  auto headers = ParseHeaderBlock(
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2));
  if (!headers.ok()) {
    broken_ = true;
    return headers.status();
  }
  response.headers = std::move(*headers);
  ExtractBody(&response.body, body_len);
  return response;
}

}  // namespace ofmf::http
