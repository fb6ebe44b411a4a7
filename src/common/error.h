// Error handling primitives for the DeepBurning library.
//
// User-facing failures (malformed prototxt, infeasible constraints, ...)
// throw db::Error; internal invariant violations abort through DB_CHECK.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace db {

/// Exception thrown for recoverable, user-facing errors: malformed model
/// scripts, invalid layer parameters, infeasible resource constraints.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Operation attempted on a component whose intake has closed, e.g.
/// submitting to a drained InferenceServer.
/// A distinct type so callers can tell "the system is shutting down"
/// (retry elsewhere / stop producing) apart from a bad request.
class ShutdownError : public Error {
 public:
  explicit ShutdownError(const std::string& what) : Error(what) {}
};

/// Per-request outcome, used where a failure must cross a thread
/// boundary as a value instead of an exception (server workers report
/// request dispositions through records, never by throwing).
enum class StatusCode {
  kOk = 0,
  kDeadlineExceeded,  // expired before its datapath service began
  kShed,              // evicted by kShedOldest admission under overload
  kRejected,          // refused at admission under kReject
  kFaulted,           // injected-fault retries exhausted
};

constexpr const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kShed: return "SHED";
    case StatusCode::kRejected: return "REJECTED";
    case StatusCode::kFaulted: return "FAULTED";
  }
  return "UNKNOWN";
}

/// Parse failures from the prototxt frontend; carries a line number.
class ParseError : public Error {
 public:
  ParseError(int line, const std::string& what)
      : Error("parse error at line " + std::to_string(line) + ": " + what),
        line_(line) {}

  int line() const { return line_; }

 private:
  int line_;
};

namespace internal {
[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr,
                                     const std::string& msg) {
  std::ostringstream os;
  os << "DB_CHECK failed at " << file << ":" << line << ": " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}
}  // namespace internal

}  // namespace db

/// Internal invariant check. Always on (the library is a generator, not a
/// hot inner loop); throws std::logic_error so tests can observe violations.
#define DB_CHECK(expr)                                                \
  do {                                                                \
    if (!(expr))                                                      \
      ::db::internal::CheckFailed(__FILE__, __LINE__, #expr, "");     \
  } while (0)

#define DB_CHECK_MSG(expr, msg)                                       \
  do {                                                                \
    if (!(expr))                                                      \
      ::db::internal::CheckFailed(__FILE__, __LINE__, #expr, (msg));  \
  } while (0)

/// Throw a db::Error with streamed message: DB_THROW("bad k=" << k).
#define DB_THROW(streamed)               \
  do {                                   \
    std::ostringstream os_;              \
    os_ << streamed;                     \
    throw ::db::Error(os_.str());        \
  } while (0)
