#include "ghs/util/strings.hpp"

#include "ghs/util/writer.hpp"

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
  char buf[kMaxFixedChars];
  return std::string(buf, write_fixed(buf, value, decimals));
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
