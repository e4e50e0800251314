// Minimal properties-file support: `key = value` lines, '#' comments,
// blank lines ignored. Used to describe alternative systems (a what-if
// GH200, a future part) in text files consumed by benches and examples via
// --config=FILE, instead of recompiling SystemConfig changes.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ghs {

class Properties {
 public:
  /// Parses properties text; throws ghs::Error on malformed lines or
  /// duplicate keys.
  static Properties parse(const std::string& text);

  /// Reads and parses a file; throws on I/O failure.
  static Properties load_file(const std::string& path);

  std::size_t size() const { return values_.size(); }

  /// Typed getters; return nullopt when the key is absent and throw when
  /// the value does not parse as the requested type.
  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<long long> get_int(const std::string& key) const;

  /// All keys, sorted (for unknown-key diagnostics).
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ghs
