#include "json/parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "json/plain_run.hpp"

namespace ofmf::json {
namespace {

// Each value is built in the slot its parent already holds (array element,
// object member, or the document), so nothing is moved on the way back up.
class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Result<Json> Run() {
    Json value;
    SkipWhitespace();
    OFMF_RETURN_IF_ERROR(ParseValue(0, value));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters after document");
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(std::size_t depth, Json& out) {
    if (depth > options_.max_depth) return Error("maximum nesting depth exceeded");
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(depth, out);
      case '[': return ParseArray(depth, out);
      case '"': {
        std::string s;
        OFMF_RETURN_IF_ERROR(ParseString(s));
        out = Json(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        out = Json(true);
        return Status::Ok();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        out = Json(false);
        return Status::Ok();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        out = Json(nullptr);
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(std::size_t depth, Json& out) {
    Consume('{');
    out = Json::MakeObject();
    Object& obj = out.as_object();
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key string");
      std::string key;
      OFMF_RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      // A duplicate key reuses the first key's slot, so the last value wins
      // at the first key's position, exactly as Object::Set does.
      OFMF_RETURN_IF_ERROR(ParseValue(depth + 1, obj.Set(std::move(key), Json())));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(std::size_t depth, Json& out) {
    Consume('[');
    out = Json::MakeArray();
    Array& arr = out.as_array();
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      OFMF_RETURN_IF_ERROR(ParseValue(depth + 1, arr.emplace_back()));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string& out) {
    Consume('"');
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t run = internal::PlainRunLength(text_.substr(pos_));
      out.append(text_.data() + pos_, run);
      pos_ += run;
      if (AtEnd()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') return Error("raw control character in string");
      if (AtEnd()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          OFMF_ASSIGN_OR_RETURN(unsigned cp, ParseHex4());
          // Surrogate pairs.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!ConsumeLiteral("\\u")) return Error("unpaired high surrogate");
            OFMF_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) return Error("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default: return Error("invalid escape character");
      }
    }
  }

  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else return Error("invalid hex digit in \\u escape");
    }
    return value;
  }

  static void AppendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(Json& out) {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Error("invalid number");
    }
    // Leading zero rule: "0" alone or "0." is fine, "01" is not.
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("leading zero in number");
      }
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    bool is_integer = true;
    if (!AtEnd() && Peek() == '.') {
      is_integer = false;
      ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("digit required after decimal point");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      is_integer = false;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("digit required in exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_integer) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        out = Json(value);
        return Status::Ok();
      }
      // Fall through: out-of-range integers become doubles.
    }
    const double value = std::strtod(std::string(token).c_str(), nullptr);
    if (std::isinf(value)) return Error("number out of range");
    out = Json(value);
    return Status::Ok();
  }

  std::string_view text_;
  ParseOptions options_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> Parse(std::string_view text, const ParseOptions& options) {
  return Parser(text, options).Run();
}

}  // namespace ofmf::json
