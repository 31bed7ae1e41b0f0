// Recursive-descent JSON parser (RFC 8259). Depth-limited so hostile inputs
// from the wire cannot blow the stack.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "json/value.hpp"

namespace ofmf::json {

struct ParseOptions {
  std::size_t max_depth = 128;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
Result<Json> Parse(std::string_view text, const ParseOptions& options = {});

/// One member of a top-level object: its decoded key and the source bytes of
/// its value, plus the source bytes of each element when the value is an
/// array. The views point into the text that was parsed.
struct RawMember {
  std::string key;
  std::string_view value;
  std::vector<std::string_view> elements;  // empty unless value is an array
};

/// A document checked by Parse's grammar with no DOM built.
struct RawDocument {
  bool is_object = false;  // false for any other valid document
  /// The object's members in the order Parse's Object holds them: a repeated
  /// key keeps its first position and its last value.
  std::vector<RawMember> members;

  const RawMember* Find(std::string_view key) const;
};

/// Runs Parse's grammar over `text` without building values: it accepts and
/// rejects exactly the documents Parse does, with the same error, and
/// returns a top-level object's members as source bytes.
Result<RawDocument> ParseRaw(std::string_view text, const ParseOptions& options = {});

}  // namespace ofmf::json
