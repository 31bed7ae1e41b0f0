#include "json/serialize.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "json/plain_run.hpp"

namespace ofmf::json {
namespace {

/// Appends `s` quoted, copying each run of bytes that needs no escaping in
/// one append. Bytes >= 0x80 pass through raw; C0 controls without a short
/// form become lowercase \u00XX.
void AppendEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  while (true) {
    const std::size_t run = internal::PlainRunLength(s);
    out.append(s.data(), run);
    if (run == s.size()) break;
    const auto c = static_cast<unsigned char>(s[run]);
    s.remove_prefix(run + 1);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.push_back('"');
}

void AppendInt(std::string& out, std::int64_t v) {
  char buffer[24];  // "-9223372036854775808" is 20 chars
  const char* end = std::to_chars(buffer, buffer + sizeof(buffer), v).ptr;
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

void AppendDouble(std::string& out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    // JSON has no NaN/Inf; emit null (matches common tooling behaviour).
    out += "null";
    return;
  }
  char buffer[32];
  // %.17g round-trips doubles; trim to shortest form that re-parses equal.
  for (int precision : {15, 16, 17}) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, v);
    if (std::strtod(buffer, nullptr) == v) break;
  }
  out += buffer;
  // Ensure a serialized double re-parses as a double, not an int.
  std::string_view written(buffer);
  if (written.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void Write(const Json& value, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (value.type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Type::kInt: AppendInt(out, value.as_int()); break;
    case Type::kDouble: AppendDouble(out, value.as_double()); break;
    case Type::kString: AppendEscaped(out, value.as_string()); break;
    case Type::kArray: {
      const Array& arr = value.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Json& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        Write(item, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& obj = value.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(out, k);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        Write(v, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Serialize(const Json& value) {
  std::string out;
  Write(value, out, -1, 0);
  return out;
}

std::string SerializePretty(const Json& value) {
  std::string out;
  Write(value, out, 2, 0);
  return out;
}

std::string QuoteString(std::string_view s) {
  std::string out;
  AppendEscaped(out, s);
  return out;
}

}  // namespace ofmf::json
