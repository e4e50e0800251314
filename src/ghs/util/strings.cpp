#include "ghs/util/strings.hpp"

#include <array>
#include <cstdio>
#include <ostream>

#include "ghs/util/error.hpp"

namespace ghs {

std::vector<std::string> split(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string format_fixed(double value, int decimals) {
  GHS_REQUIRE(decimals >= 0 && decimals <= 12, "decimals=" << decimals);
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", decimals, value);
  return std::string(buf.data());
}

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void write_json_escaped(std::ostream& os, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

std::string pad_left(const std::string& text, std::size_t width) {
  if (text.size() >= width) return text;
  return std::string(width - text.size(), ' ') + text;
}

std::string pad_right(const std::string& text, std::size_t width) {
  if (text.size() >= width) return text;
  return text + std::string(width - text.size(), ' ');
}

}  // namespace ghs
