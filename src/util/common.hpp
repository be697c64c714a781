#pragma once
/// \file common.hpp
/// Shared basic definitions: fixed-width aliases, error-checking macros.

#include <cstdint>
#include <stdexcept>
#include <string>

// The tree relies on C++20 (<bit>'s std::popcount / std::bit_ceil /
// std::countl_zero and defaulted operator==); fail fast with a clear message
// instead of scattered errors in bloom/, dht/, and overlap/.
#if defined(__cplusplus) && __cplusplus < 202002L
#error "diBELLA requires C++20; compile with -std=c++20 (CMake pins this)"
#endif

namespace dibella {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Exception type thrown by DIBELLA_CHECK / DIBELLA_FAIL.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file, int line,
                                      const std::string& msg);
}  // namespace detail

}  // namespace dibella

/// Runtime invariant check: throws dibella::Error with location info on failure.
/// Used for conditions that depend on input data or configuration, which must
/// stay on in release builds (assert() would compile out).
#define DIBELLA_CHECK(expr, msg)                                                 \
  do {                                                                           \
    if (!(expr)) {                                                               \
      ::dibella::detail::throw_check_failure(#expr, __FILE__, __LINE__, (msg));  \
    }                                                                            \
  } while (false)

#define DIBELLA_FAIL(msg) \
  ::dibella::detail::throw_check_failure("failure", __FILE__, __LINE__, (msg))
