#ifndef SAPHYRA_TOOLS_FLAG_PARSE_H_
#define SAPHYRA_TOOLS_FLAG_PARSE_H_

// Checked numeric flag values for the command-line tools. A value must be
// one complete base-10 number that fits the destination: `--max-queue abc`,
// `--default-deadline-ms 5s`, `--concurrency -1` or `--epsilon 0.o5` are
// rejected with a message instead of being read as 0, 5, a wrapped huge
// count, or 0 (what strtoul/atof would make of them).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace saphyra {

/// \brief Parse `text`, the value of `flag`, into *out. On failure prints
/// "<flag> expects ..., got <text>" to stderr and returns false, leaving
/// *out unchanged. Integers must be non-negative and within T's range;
/// floating-point values must be finite.
template <typename T>
bool ParseFlagValue(const char* flag, const char* text, T* out) {
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text, &end);
    if (end != text && *end == '\0' && errno == 0 && std::isfinite(v)) {
      *out = static_cast<T>(v);
      return true;
    }
    std::fprintf(stderr, "%s expects a finite number, got '%s'\n", flag,
                 text);
  } else {
    static_assert(std::is_unsigned_v<T>, "unsigned integer flags only");
    // strtoull accepts a sign and wraps "-1" to 2^64 - 1; only digits may
    // start the value.
    const bool digit_first = *text >= '0' && *text <= '9';
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (digit_first && *end == '\0' && errno == 0 &&
        v <= std::numeric_limits<T>::max()) {
      *out = static_cast<T>(v);
      return true;
    }
    std::fprintf(stderr, "%s expects an integer in [0, %llu], got '%s'\n",
                 flag,
                 static_cast<unsigned long long>(std::numeric_limits<T>::max()),
                 text);
  }
  return false;
}

}  // namespace saphyra

#endif  // SAPHYRA_TOOLS_FLAG_PARSE_H_
