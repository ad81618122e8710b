// Lightweight contract checking used across the library.
//
// CBRAIN_CHECK enforces preconditions/invariants that guard against caller
// misuse; failures throw cbrain::CheckError with file/line context so tests
// can assert on misuse and applications can recover or report.
// CBRAIN_DCHECK compiles away in NDEBUG builds and is reserved for
// internal invariants on hot paths (per-cycle simulator loops).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace cbrain {

// Thrown when a CBRAIN_CHECK contract is violated.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

// Builds the optional streamed message lazily (only on failure).
class CheckMessage {
 public:
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace cbrain

// The message is built inside a lambda so CBRAIN_CHECK remains usable in
// C++20 constexpr functions (no non-literal locals in the enclosing
// function; the lambda only runs on failure, which is never in a constant
// evaluation of a passing check).
#define CBRAIN_CHECK(cond, ...)                                          \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::cbrain::detail::check_failed(#cond, __FILE__, __LINE__,          \
                                     [&]() -> ::std::string {            \
                                       ::cbrain::detail::CheckMessage m; \
                                       (void)(m __VA_OPT__(<<)           \
                                                  __VA_ARGS__);          \
                                       return m.str();                   \
                                     }());                               \
    }                                                                    \
  } while (false)

#ifdef NDEBUG
#define CBRAIN_DCHECK(cond, ...) \
  do {                           \
  } while (false)
#else
#define CBRAIN_DCHECK(cond, ...) CBRAIN_CHECK(cond, __VA_ARGS__)
#endif
