// HTTP/1.1 wire serialization and incremental parsing (Content-Length
// framing; chunked encoding intentionally out of scope — Redfish payloads are
// always length-framed here).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bufpool.hpp"
#include "common/result.hpp"
#include "http/message.hpp"

namespace ofmf::http {

std::string SerializeRequest(const Request& request);
std::string SerializeResponse(const Response& response);

/// Request start line + headers + Content-Length + blank-line terminator,
/// WITHOUT the body octets — the transport sends the body as a second
/// writev segment so a POST payload is never concatenated into the head.
std::string SerializeRequestHead(const Request& request);

/// Response status line + headers + Content-Length for a `body_size`-byte
/// body, skipping any Connection header in the map and omitting the
/// blank-line terminator. The transport appends its own
/// "Connection: ...\r\n\r\n" fragment; the Redfish response cache stores
/// this block alongside the body so a cache hit serializes nothing.
std::string SerializeResponseHead(const Response& response, std::size_t body_size);

/// Process-wide instrumentation of user-space body copies on the wire path
/// (relaxed atomics). zero_copy_test reads these to prove a cached GET moves
/// zero body bytes between the cache slab and the socket.
struct WireCopyStats {
  std::uint64_t body_bytes_copied = 0;  // body octets duplicated in user space
  std::uint64_t body_copies = 0;        // distinct copy events
  std::uint64_t zero_copy_bodies = 0;   // bodies handed off as slab views
};
WireCopyStats GetWireCopyStats();
void ResetWireCopyStats();

/// Incremental parser usable for both directions. Feed bytes; poll for a
/// complete message. Framing is computed incrementally: the header-terminator
/// search resumes where the last Feed() left off and the parsed
/// (header_end, content_length) pair is cached until the message is taken,
/// so feeding a large body in small chunks costs O(bytes), not O(bytes^2).
///
/// Buffering is slab-based: bytes land in a pooled power-of-two slab
/// (common::BufferPool) that the transport can recv() into directly via
/// BeginFill/CommitFill. A body of at least kZeroCopyBodyBytes is extracted
/// as a Body view of that slab — the parser relinquishes the slab to the
/// message and restarts on a fresh one, copying only the leftover pipelined
/// tail (usually zero bytes). Smaller bodies are copied out (cheaper than
/// slab churn) and the buffer is compacted eagerly after every framed
/// message, so a long-lived keep-alive connection never pins peak-request
/// memory.
class WireParser {
 public:
  enum class Mode { kRequest, kResponse };

  /// Which configured limit an incoming message breached. A server maps
  /// kHeader to 431 (Request Header Fields Too Large) and kBody to 413
  /// (Content Too Large); once set, further Feed() bytes are discarded so a
  /// misbehaving peer cannot grow the buffer.
  enum class Overflow { kNone, kHeader, kBody };

  explicit WireParser(Mode mode) : mode_(mode) {}

  /// HEAD-response mode (RFC 9110 §9.3.2): the peer sends Content-Length
  /// describing the GET body but no body octets follow the header block.
  /// Set before Feed() when the request that elicited the response was HEAD.
  void set_bodyless_response(bool bodyless) { bodyless_response_ = bodyless; }

  /// Caps enforced during Feed(). 0 (the default) means unlimited — clients
  /// parsing trusted responses leave them off; servers set both. The header
  /// limit counts the whole header block including the blank-line terminator;
  /// the body limit checks the declared Content-Length, so an oversized
  /// message is rejected before its body is buffered.
  void set_limits(std::size_t max_header_bytes, std::size_t max_body_bytes) {
    max_header_bytes_ = max_header_bytes;
    max_body_bytes_ = max_body_bytes;
  }

  /// Appends raw bytes from the peer (dropped once an overflow is flagged).
  void Feed(std::string_view bytes);

  /// Direct-fill variant: returns writable space of at least `min_bytes` at
  /// the buffer tail (out-param `capacity` receives the full available
  /// span) for the transport to recv() into; CommitFill(n) then makes n
  /// bytes visible to the parser. Skips the Feed() staging copy.
  char* BeginFill(std::size_t min_bytes, std::size_t* capacity);
  void CommitFill(std::size_t n);

  /// True once a full message (headers + body) is buffered.
  bool HasMessage() const;

  /// Extracts the parsed request (Mode::kRequest only), consuming its bytes;
  /// call only when HasMessage(). Leftover bytes stay buffered (pipelining).
  Result<Request> TakeRequest();
  Result<Response> TakeResponse();

  /// Parse failure detected (malformed start line / headers).
  bool Broken() const { return broken_; }

  /// Limit breach detected (see set_limits).
  Overflow overflow() const { return overflow_; }

  /// Bytes currently buffered (leftover pipelined input after a Take, or a
  /// partial message). A client uses this to detect protocol desync before
  /// returning a connection to a keep-alive pool.
  std::size_t buffered_bytes() const { return len_; }

  /// Capacity of the backing slab (0 when none held). Tests use this to
  /// assert eager compaction after a large framed message.
  std::size_t buffer_capacity() const { return slab_ ? slab_->size() : 0; }

  /// Discards all buffered bytes and clears broken/overflow state. Used when
  /// a connection is being abandoned after a parse error so stale pipelined
  /// bytes can never be misread as the start of a fresh message.
  void Reset();

  /// Bodies at or above this size are extracted as zero-copy slab views;
  /// smaller ones are copied out (slab hand-off costs more than the copy).
  static constexpr std::size_t kZeroCopyBodyBytes = 4096;

 private:
  /// Re-derives framing (header_end_/content_length_) and overflow state for
  /// the bytes currently buffered. Called after every append and after every
  /// Take so HasMessage() stays O(1).
  void Reframe();

  /// Buffered bytes as a view (empty when no slab is held).
  std::string_view buffered() const {
    return slab_ ? std::string_view(slab_->data(), len_) : std::string_view{};
  }

  /// Moves the framed message's body into `out` (zero-copy when large) and
  /// consumes the message's bytes, re-framing any pipelined leftover.
  void ExtractBody(Body* out, std::size_t body_len);

  /// Drops the first n buffered bytes, compacting the slab eagerly when the
  /// leftover is small relative to its capacity.
  void ConsumeFront(std::size_t n);

  Mode mode_;
  common::BufferPool::Slab slab_;  // null until first fill
  std::size_t len_ = 0;            // bytes valid in *slab_
  bool bodyless_response_ = false;
  bool broken_ = false;
  Overflow overflow_ = Overflow::kNone;
  std::size_t max_header_bytes_ = 0;
  std::size_t max_body_bytes_ = 0;

  // Cached framing of the message at the front of the buffer.
  bool framed_ = false;             // header_end_/content_length_ are valid
  std::size_t header_end_ = 0;      // offset of the "\r\n\r\n" terminator
  std::size_t content_length_ = 0;  // declared body size
  std::size_t scan_pos_ = 0;        // resume point for the terminator search
};

}  // namespace ofmf::http
