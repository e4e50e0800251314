// String helpers shared by table rendering, CLI handling and the JSON
// exporters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ghs {

/// Splits on a delimiter; empty tokens are preserved.
std::vector<std::string> split(const std::string& text, char delim);

/// Fixed-precision decimal rendering, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);

/// Fixed-width lowercase hex, e.g. hex16(0xc0ffee) == "0000000000c0ffee";
/// the form trace ids take in every export.
std::string hex16(std::uint64_t value);

/// Writes `text` as the body of a JSON string: `"` and `\` are
/// backslash-escaped, and control characters get their short escape or
/// \u00XX, so no byte is dropped or replaced.
void write_json_escaped(std::ostream& os, const std::string& text);

/// Pads with spaces on the left (right-aligns) to at least `width`.
std::string pad_left(const std::string& text, std::size_t width);

/// Pads with spaces on the right (left-aligns) to at least `width`.
std::string pad_right(const std::string& text, std::size_t width);

}  // namespace ghs
