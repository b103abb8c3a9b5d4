// Always-on invariant checking.
//
// The coherence protocol is full of invariants (single writer, copyset
// supersets, chain termination) whose violation must never be silently
// ignored — a stale page read would corrupt an experiment without any
// crash.  IVY_CHECK therefore stays on in release builds; the hot paths
// that matter (per-access rights test) are written so the check is a
// single predictable branch.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace ivy::detail {

[[noreturn]] inline void check_failed(const char* file, int line,
                                      const char* expr,
                                      const std::string& msg) {
  std::fprintf(stderr, "IVY_CHECK failed at %s:%d: %s%s%s\n", file, line,
               expr, msg.empty() ? "" : " — ", msg.c_str());
  std::fflush(stderr);
  std::abort();
}

// Lazily builds the failure message only on the failing path.
class CheckMessage {
 public:
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace ivy::detail

#define IVY_CHECK(cond)                                                     \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      ::ivy::detail::check_failed(__FILE__, __LINE__, #cond, "");           \
    }                                                                       \
  } while (0)

// The message is built in a cold out-of-line lambda, so the check costs
// its caller one branch and no stream code, and small hot helpers with a
// checked argument stay inlinable.
#define IVY_CHECK_MSG(cond, ...)                                            \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      [&]() __attribute__((cold, noinline, noreturn)) {                     \
        ::ivy::detail::check_failed(                                        \
            __FILE__, __LINE__, #cond,                                      \
            (::ivy::detail::CheckMessage{} << __VA_ARGS__).str());          \
      }();                                                                  \
    }                                                                       \
  } while (0)

#define IVY_CHECK_EQ(a, b) \
  IVY_CHECK_MSG((a) == (b), "lhs=" << (a) << " rhs=" << (b))
#define IVY_CHECK_NE(a, b) \
  IVY_CHECK_MSG((a) != (b), "both=" << (a))
#define IVY_CHECK_LT(a, b) \
  IVY_CHECK_MSG((a) < (b), "lhs=" << (a) << " rhs=" << (b))
#define IVY_CHECK_LE(a, b) \
  IVY_CHECK_MSG((a) <= (b), "lhs=" << (a) << " rhs=" << (b))
#define IVY_CHECK_GT(a, b) \
  IVY_CHECK_MSG((a) > (b), "lhs=" << (a) << " rhs=" << (b))
#define IVY_CHECK_GE(a, b) \
  IVY_CHECK_MSG((a) >= (b), "lhs=" << (a) << " rhs=" << (b))

/// Marks unreachable protocol states.
#define IVY_UNREACHABLE(msg) \
  ::ivy::detail::check_failed(__FILE__, __LINE__, "unreachable", msg)
