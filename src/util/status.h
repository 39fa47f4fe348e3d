// RocksDB-style Status for error handling on non-hot paths (I/O, option
// validation). Algorithm hot paths never allocate or throw; they receive
// validated inputs and return values directly.
#ifndef TIMPP_UTIL_STATUS_H_
#define TIMPP_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace timpp {

/// Outcome of a fallible operation. Cheap to copy when OK (empty message).
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kCorruption,
    kOutOfRange,
    kUnavailable,
  };

  /// Default-constructed Status is OK.
  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsOutOfRange() const { return code_ == Code::kOutOfRange; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  /// Human-readable representation, e.g. "InvalidArgument: k must be >= 1".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK. Mirrors the RocksDB/Arrow RETURN_NOT_OK idiom.
#define TIMPP_RETURN_NOT_OK(expr)              \
  do {                                         \
    ::timpp::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (false)

}  // namespace timpp

#endif  // TIMPP_UTIL_STATUS_H_
