// Lightweight Status / StatusOr error-propagation types used across CFS.
//
// The error vocabulary deliberately mirrors POSIX file-system error classes
// (ENOENT, EEXIST, ENOTDIR, ...) plus the distributed-system failure modes
// the paper's protocols must surface (kConflict for lock/txn aborts,
// kUnavailable for partitions, kNotLeader for raft redirects).

#ifndef CFS_COMMON_STATUS_H_
#define CFS_COMMON_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/check.h"

namespace cfs {

enum class ErrorCode {
  kOk = 0,
  kNotFound,        // ENOENT
  kAlreadyExists,   // EEXIST
  kNotADirectory,   // ENOTDIR
  kIsADirectory,    // EISDIR
  kNotEmpty,        // ENOTEMPTY
  kInvalidArgument, // EINVAL
  kPermissionDenied,// EACCES
  kCrossDevice,     // EXDEV (would-be orphan loop etc.)
  kConflict,        // transaction/lock conflict, retryable
  kAborted,         // explicitly aborted (2PC, failed predicate)
  kTimeout,         // lock or rpc deadline exceeded
  kUnavailable,     // node down / partitioned
  kNotLeader,       // raft: retry against leader
  kIoError,         // wal/kv corruption or write failure
  kCorruption,      // checksum mismatch
  kUnimplemented,
  kInternal,
};

std::string_view ErrorCodeName(ErrorCode code);

// [[nodiscard]]: a dropped Status is a swallowed error. Enforced by
// -Werror=unused-result (CMakeLists.txt) and scripts/lint.sh; deliberate
// drops must say so with a (void) cast.
class [[nodiscard]] Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") {
    return Status(ErrorCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m = "") {
    return Status(ErrorCode::kAlreadyExists, std::move(m));
  }
  static Status NotADirectory(std::string m = "") {
    return Status(ErrorCode::kNotADirectory, std::move(m));
  }
  static Status IsADirectory(std::string m = "") {
    return Status(ErrorCode::kIsADirectory, std::move(m));
  }
  static Status NotEmpty(std::string m = "") {
    return Status(ErrorCode::kNotEmpty, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(ErrorCode::kInvalidArgument, std::move(m));
  }
  static Status PermissionDenied(std::string m = "") {
    return Status(ErrorCode::kPermissionDenied, std::move(m));
  }
  static Status CrossDevice(std::string m = "") {
    return Status(ErrorCode::kCrossDevice, std::move(m));
  }
  static Status Conflict(std::string m = "") {
    return Status(ErrorCode::kConflict, std::move(m));
  }
  static Status Aborted(std::string m = "") {
    return Status(ErrorCode::kAborted, std::move(m));
  }
  static Status Timeout(std::string m = "") {
    return Status(ErrorCode::kTimeout, std::move(m));
  }
  static Status Unavailable(std::string m = "") {
    return Status(ErrorCode::kUnavailable, std::move(m));
  }
  static Status NotLeader(std::string m = "") {
    return Status(ErrorCode::kNotLeader, std::move(m));
  }
  static Status IoError(std::string m = "") {
    return Status(ErrorCode::kIoError, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(ErrorCode::kCorruption, std::move(m));
  }
  static Status Unimplemented(std::string m = "") {
    return Status(ErrorCode::kUnimplemented, std::move(m));
  }
  static Status Internal(std::string m = "") {
    return Status(ErrorCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == ErrorCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == ErrorCode::kAlreadyExists; }
  bool IsConflict() const { return code_ == ErrorCode::kConflict; }
  bool IsRetryable() const {
    return code_ == ErrorCode::kConflict || code_ == ErrorCode::kTimeout ||
           code_ == ErrorCode::kNotLeader || code_ == ErrorCode::kUnavailable;
  }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

// A value-or-error holder in the spirit of absl::StatusOr.
// [[nodiscard]] for the same reason as Status: dropping one swallows the
// error *and* the value.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    CFS_CHECK_MSG(!status_.ok(),
                  "StatusOr constructed from OK status w/o value");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CFS_CHECK(ok());
    return *value_;
  }
  T& value() & {
    CFS_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    CFS_CHECK(ok());
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace cfs

// Early-return helpers. Kept as macros (the one idiomatic use of macros in
// status-based codebases) so call sites stay single-line.
#define CFS_RETURN_IF_ERROR(expr)          \
  do {                                     \
    ::cfs::Status _st = (expr);            \
    if (!_st.ok()) return _st;             \
  } while (0)

#define CFS_ASSIGN_OR_RETURN(lhs, expr)    \
  auto CFS_CONCAT_(_sor_, __LINE__) = (expr);            \
  if (!CFS_CONCAT_(_sor_, __LINE__).ok())                \
    return CFS_CONCAT_(_sor_, __LINE__).status();        \
  lhs = std::move(CFS_CONCAT_(_sor_, __LINE__)).value()

#define CFS_CONCAT_INNER_(a, b) a##b
#define CFS_CONCAT_(a, b) CFS_CONCAT_INNER_(a, b)

#endif  // CFS_COMMON_STATUS_H_
