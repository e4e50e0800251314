#include "ghs/util/writer.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>

#include "ghs/util/error.hpp"

namespace ghs {

namespace {

/// JSON's two-character escapes: `\` and the letter in kShortEscapes at
/// the byte's position in kEscaped.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t";
constexpr std::string_view kShortEscapes = "\"\\bfnrt";

constexpr char kHexDigits[] = "0123456789abcdef";

/// True for the bytes a JSON string body must escape.
bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

}  // namespace

char* write_fixed(char* first, double value, int decimals) {
  GHS_REQUIRE(decimals >= 0 && decimals <= 12, "decimals=" << decimals);
  const auto [end, ec] =
      std::to_chars(first, first + kMaxFixedChars, value,
                    std::chars_format::fixed, decimals);
  GHS_CHECK(ec == std::errc{}, "fixed-point " << value << " did not fit");
  return end;
}

Writer::~Writer() {
  try {
    flush();
  } catch (...) {
    // A stream with exceptions enabled threw; it has set its own badbit,
    // which is where every caller looks for a failed write.
  }
}

void Writer::flush() {
  if (used_ == 0) return;
  os_.write(buf_, static_cast<std::streamsize>(used_));
  used_ = 0;
}

Writer& Writer::operator<<(std::string_view text) {
  while (!text.empty()) {
    if (used_ == kChunk) flush();
    const std::size_t n = std::min(text.size(), kChunk - used_);
    std::memcpy(buf_ + used_, text.data(), n);
    used_ += n;
    text.remove_prefix(n);
  }
  return *this;
}

Writer& Writer::operator<<(Fixed value) {
  char* first = room(kMaxFixedChars);
  used_ = static_cast<std::size_t>(
      write_fixed(first, value.value, value.decimals) - buf_);
  return *this;
}

Writer& Writer::operator<<(General value) {
  constexpr std::size_t kRoom = 32;  // "-1.23457e+308" and the like
  char* first = room(kRoom);
  const auto [end, ec] = std::to_chars(first, first + kRoom, value.value,
                                       std::chars_format::general, 6);
  GHS_CHECK(ec == std::errc{}, "general " << value.value << " did not fit");
  used_ = static_cast<std::size_t>(end - buf_);
  return *this;
}

Writer& Writer::operator<<(Micros value) {
  *this << value.ps / kMicrosecond;
  char* frac = room(7);
  frac[0] = '.';
  SimTime rest = value.ps % kMicrosecond;
  for (int i = 6; i >= 1; --i) {
    frac[i] = static_cast<char>('0' + rest % 10);
    rest /= 10;
  }
  used_ += 7;
  return *this;
}

Writer& Writer::operator<<(Hex16 value) {
  char* first = room(16);
  for (int i = 15; i >= 0; --i) {
    first[i] = kHexDigits[value.value & 0xf];
    value.value >>= 4;
  }
  used_ += 16;
  return *this;
}

Writer& Writer::operator<<(JsonEscaped value) {
  std::string_view text = value.text;
  while (!text.empty()) {
    // Copy the run of plain characters, then escape the byte that ended it.
    const auto plain = std::find_if(text.begin(), text.end(), needs_escape);
    const auto run = static_cast<std::size_t>(plain - text.begin());
    *this << text.substr(0, run);
    text.remove_prefix(run);
    if (text.empty()) break;
    const auto byte = static_cast<unsigned char>(text.front());
    text.remove_prefix(1);
    const std::size_t k = kEscaped.find(static_cast<char>(byte));
    if (k != std::string_view::npos) {
      const char escape[] = {'\\', kShortEscapes[k]};
      *this << std::string_view(escape, sizeof(escape));
    } else {
      const char escape[] = {'\\', 'u', '0', '0', kHexDigits[byte >> 4],
                             kHexDigits[byte & 0xf]};
      *this << std::string_view(escape, sizeof(escape));
    }
  }
  return *this;
}

}  // namespace ghs
