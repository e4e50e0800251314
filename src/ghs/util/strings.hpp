// String helpers shared by table rendering and CLI handling. The exports
// format through ghs::Writer (writer.hpp).
#pragma once

#include <string>
#include <vector>

namespace ghs {

/// Splits on a delimiter; empty tokens are preserved.
std::vector<std::string> split(const std::string& text, char delim);

/// Fixed-precision decimal rendering, e.g. format_fixed(3.14159, 2) == "3.14";
/// the text ghs::Fixed writes, in full for any finite double.
std::string format_fixed(double value, int decimals);

/// Pads with spaces on the left (right-aligns) to at least `width`.
std::string pad_left(const std::string& text, std::size_t width);

/// Pads with spaces on the right (left-aligns) to at least `width`.
std::string pad_right(const std::string& text, std::size_t width);

}  // namespace ghs
