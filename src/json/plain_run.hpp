// Private to src/json: finds where a run of bytes that a JSON string can carry
// verbatim ends. The parser copies such runs in one append, and the
// serializer copies them unescaped.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ofmf::json::internal {

/// True for every byte but the quote, the backslash and the C0 controls.
/// The comparison is unsigned, so bytes >= 0x80 are plain.
inline bool IsPlainStringByte(char c) {
  const auto byte = static_cast<unsigned char>(c);
  return byte >= 0x20 && byte != '"' && byte != '\\';
}

/// Length of the longest prefix of `s` made of plain bytes. Tests eight
/// bytes per step: a word holds a byte that is not plain exactly when one of
/// the three masks below has a high bit set (a control byte < 0x20, a zero
/// byte after XOR with '"', or one after XOR with '\\'; a byte >= 0x80 has
/// its own high bit set and so never matches). Borrows between bytes can
/// only add matches above a real one, and the byte loop finds the exact
/// position inside the first word that matches.
inline std::size_t PlainRunLength(std::string_view s) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= s.size(); i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, s.data() + i, sizeof(word));
    const std::uint64_t quote = word ^ (kOnes * '"');
    const std::uint64_t backslash = word ^ (kOnes * '\\');
    const std::uint64_t stop = ((word - kOnes * 0x20) & ~word) |
                               ((quote - kOnes) & ~quote) |
                               ((backslash - kOnes) & ~backslash);
    if ((stop & kHigh) != 0) break;
  }
  while (i < s.size() && IsPlainStringByte(s[i])) ++i;
  return i;
}

}  // namespace ofmf::json::internal
