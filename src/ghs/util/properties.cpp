#include "ghs/util/properties.hpp"

#include <fstream>
#include <sstream>

#include "ghs/util/error.hpp"

namespace ghs {

namespace {

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

}  // namespace

Properties Properties::parse(const std::string& text) {
  Properties props;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    GHS_REQUIRE(eq != std::string::npos,
                "line " << line_number << ": expected key = value, got '"
                        << line << "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    GHS_REQUIRE(!key.empty(), "line " << line_number << ": empty key");
    GHS_REQUIRE(props.values_.emplace(key, value).second,
                "line " << line_number << ": duplicate key '" << key << "'");
  }
  return props;
}

Properties Properties::load_file(const std::string& path) {
  std::ifstream in(path);
  GHS_REQUIRE(in.good(), "cannot open properties file '" << path << "'");
  std::ostringstream contents;
  contents << in.rdbuf();
  return parse(contents.str());
}

std::optional<std::string> Properties::get_string(
    const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> Properties::get_double(const std::string& key) const {
  const auto text = get_string(key);
  if (!text) return std::nullopt;
  std::size_t pos = 0;
  double parsed = 0.0;
  bool ok = true;
  try {
    parsed = std::stod(*text, &pos);
  } catch (const std::exception&) {
    ok = false;
  }
  GHS_REQUIRE(ok && pos == text->size(),
              "property '" << key << "': '" << *text << "' is not a number");
  return parsed;
}

std::optional<long long> Properties::get_int(const std::string& key) const {
  const auto text = get_string(key);
  if (!text) return std::nullopt;
  std::size_t pos = 0;
  long long parsed = 0;
  bool ok = true;
  try {
    parsed = std::stoll(*text, &pos);
  } catch (const std::exception&) {
    ok = false;
  }
  GHS_REQUIRE(ok && pos == text->size(),
              "property '" << key << "': '" << *text
                           << "' is not an integer");
  return parsed;
}

std::vector<std::string> Properties::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

}  // namespace ghs
