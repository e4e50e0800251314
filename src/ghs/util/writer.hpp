// Writer: the one formatting path of every machine-read export.
//
// A Writer appends to a fixed buffer of kChunk bytes and hands it to the
// caller's std::ostream whenever the next item would not fit, and on
// flush() or destruction, so no export is ever held whole in memory.
// Numbers go through std::to_chars: integers as "%lld" would print them,
// fixed-point doubles exactly rounded as "%.*f" would in the C locale,
// with no locale, no stream state and no intermediate std::string.
//
// An export builds one Writer over its stream and passes it down by
// reference; two live Writers on one stream would interleave their
// buffers.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "ghs/util/units.hpp"

namespace ghs {

/// `value` with `decimals` (0 to 12) digits after the point, as "%.*f".
struct Fixed {
  double value;
  int decimals;
};

/// `value` as "%g": six significant digits, trailing zeros dropped.
struct General {
  double value;
};

/// Non-negative picoseconds as exact microseconds: the whole part, a dot
/// and six digits, with no floating point in between.
struct Micros {
  SimTime ps;
};

/// Fixed-width lowercase hex of 16 digits; the form trace ids take in
/// every export.
struct Hex16 {
  std::uint64_t value;
};

/// The body of a JSON string: `"` and `\` are backslash-escaped, and
/// control characters get their short escape or \u00XX, so no byte is
/// dropped or replaced.
struct JsonEscaped {
  std::string_view text;
};

/// The longest text a Fixed renders to: a sign, the 309 integer digits
/// of DBL_MAX, the point and 12 decimals.
inline constexpr std::size_t kMaxFixedChars = 1 + 309 + 1 + 12;

/// Writes `value` as "%.*f" from `first` and returns the end; `first`
/// needs kMaxFixedChars of room. Every finite double prints in full.
char* write_fixed(char* first, double value, int decimals);

class Writer {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit Writer(std::ostream& os) : os_(os) {}
  /// Flushes. A failed write sets the stream's badbit, as a direct write
  /// would have.
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& operator<<(std::string_view text);
  Writer& operator<<(char c) {
    *room(1) = c;
    ++used_;
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  Writer& operator<<(T value) {
    // 20 digits of uint64, or 19 and the sign of int64.
    char* first = room(kIntegerChars);
    used_ = static_cast<std::size_t>(
        std::to_chars(first, first + kIntegerChars, value).ptr - buf_);
    return *this;
  }
  /// A double names its format: Fixed or General.
  Writer& operator<<(double) = delete;
  Writer& operator<<(Fixed value);
  Writer& operator<<(General value);
  Writer& operator<<(Micros value);
  Writer& operator<<(Hex16 value);
  Writer& operator<<(JsonEscaped value);

  /// Hands everything buffered to the stream.
  void flush();

 private:
  static constexpr std::size_t kIntegerChars = 20;

  /// The next `n` free bytes (n <= kChunk), flushing first if needed.
  char* room(std::size_t n) {
    if (kChunk - used_ < n) flush();
    return buf_ + used_;
  }

  std::ostream& os_;
  std::size_t used_ = 0;
  char buf_[kChunk];
};

}  // namespace ghs
