// Error type and invariant-checking macros used across the library.
//
// Two macro families:
//   GHS_REQUIRE(cond, msg...)  - precondition on caller-supplied input;
//                                always on, throws ghs::Error.
//   GHS_CHECK(cond, msg...)    - internal invariant; always on, throws
//                                ghs::Error tagged as an internal bug.
// Both carry file:line so failures in a deep simulation stack are traceable.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ghs {

/// Exception thrown on precondition or invariant violation anywhere in the
/// library. Benches and examples let it terminate with the message; tests
/// assert on it.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A run whose simulated clock, or one of its byte or event counts, would
/// pass the 64-bit range, raised before any value wraps. The paper benches
/// exit 2 on it, naming --iters, as on a bad flag.
class OverflowError : public Error {
 public:
  using Error::Error;
};

namespace detail {

[[noreturn]] void throw_error(const char* kind, const char* cond,
                              const char* file, int line,
                              const std::string& msg);

}  // namespace detail
}  // namespace ghs

#define GHS_REQUIRE(cond, ...)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::std::ostringstream ghs_oss_;                                       \
      ghs_oss_ << __VA_ARGS__;                                             \
      ::ghs::detail::throw_error("precondition", #cond, __FILE__,          \
                                 __LINE__, ghs_oss_.str());                \
    }                                                                      \
  } while (false)

#define GHS_CHECK(cond, ...)                                               \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::std::ostringstream ghs_oss_;                                       \
      ghs_oss_ << __VA_ARGS__;                                             \
      ::ghs::detail::throw_error("internal invariant", #cond, __FILE__,    \
                                 __LINE__, ghs_oss_.str());                \
    }                                                                      \
  } while (false)

#define GHS_UNREACHABLE(...)                                               \
  do {                                                                     \
    ::std::ostringstream ghs_oss_;                                         \
    ghs_oss_ << __VA_ARGS__;                                               \
    ::ghs::detail::throw_error("unreachable", "false", __FILE__, __LINE__, \
                               ghs_oss_.str());                            \
  } while (false)
