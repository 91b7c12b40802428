/**
 * @file
 * Typed, recoverable errors for the pipeline's fault-tolerant paths.
 *
 * The library's failure contract has three tiers (see
 * docs/robustness.md and support/logging.hpp):
 *
 *  - panic(): an internal pathsched bug; aborts.
 *  - fatal(): an unrecoverable user/configuration error; exits.
 *  - Status / Expected<T>: a *recoverable* per-item failure — a
 *    malformed profile, a superblock invariant break, a scheduling
 *    failure — that a caller can quarantine (e.g. degrade one
 *    procedure to the BB baseline) instead of killing the process.
 *
 * No C++ exceptions are used anywhere in the library; Status is the
 * only error channel for recoverable failures.
 */

#ifndef PATHSCHED_SUPPORT_STATUS_HPP
#define PATHSCHED_SUPPORT_STATUS_HPP

#include <string>
#include <utility>

#include "support/logging.hpp"

namespace pathsched {

/** The error taxonomy of the recoverable pipeline. */
enum class ErrorKind : uint8_t
{
    BadProfile,     ///< malformed or out-of-range profile data
    VerifyFailed,   ///< IR structural verification found violations
    ScheduleFailed, ///< compaction/scheduling produced no valid schedule
    OutputMismatch, ///< transformed program output diverged from original
    StepLimit,      ///< interpreter exceeded its step ceiling
    Injected,       ///< forced by the fault-injection harness
    DeadlineExceeded, ///< a wall-clock budget (Deadline) expired
    BudgetExceeded,   ///< a size cap (serving's frame or WAL record) ran out
    ProfileCorrupt, ///< a profile failed integrity/consistency checks
    ProfileStale,   ///< a profile was collected against a different CFG
    IoError,        ///< a durable-path I/O operation failed (real or injected)
    Unavailable,    ///< service temporarily degraded; retry with backoff
};

/** Every ErrorKind, in declaration order (for taxonomy iteration). */
inline constexpr ErrorKind kAllErrorKinds[] = {
    ErrorKind::BadProfile,       ErrorKind::VerifyFailed,
    ErrorKind::ScheduleFailed,   ErrorKind::OutputMismatch,
    ErrorKind::StepLimit,        ErrorKind::Injected,
    ErrorKind::DeadlineExceeded, ErrorKind::BudgetExceeded,
    ErrorKind::ProfileCorrupt,   ErrorKind::ProfileStale,
    ErrorKind::IoError,          ErrorKind::Unavailable,
};

/** Stable display name, e.g. "VerifyFailed". */
const char *errorKindName(ErrorKind kind);

/** Parse a spec-file kind token ("verify", "profile", "schedule",
 *  "output", "steplimit", "injected", "deadline", "budget", "corrupt",
 *  "stale", "io", "unavailable" or an errorKindName); false on an
 *  unknown token. */
bool parseErrorKind(const std::string &token, ErrorKind &out);

/** Success, or one classified error with a human-readable message. */
class [[nodiscard]] Status
{
  public:
    /** Default-constructed Status is success. */
    Status() = default;

    static Status
    error(ErrorKind kind, std::string message)
    {
        Status s;
        s.failed_ = true;
        s.kind_ = kind;
        s.message_ = std::move(message);
        return s;
    }

    bool ok() const { return !failed_; }

    ErrorKind
    kind() const
    {
        ps_assert_msg(failed_, "Status::kind() on an OK status");
        return kind_;
    }

    const std::string &message() const { return message_; }

    /** "OK" or "<kind>: <message>". */
    std::string toString() const;

  private:
    bool failed_ = false;
    ErrorKind kind_ = ErrorKind::Injected;
    std::string message_;
};

/**
 * A value of type @p T or a non-OK Status.  T must be
 * default-constructible (all pathsched stat/result structs are).
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Status status) : status_(std::move(status))
    {
        ps_assert_msg(!status_.ok(),
                      "Expected constructed from an OK status");
    }

    bool ok() const { return status_.ok(); }

    const Status &status() const { return status_; }

    T &
    value()
    {
        ps_assert_msg(ok(), "Expected::value() on error: %s",
                      status_.message().c_str());
        return value_;
    }

    const T &
    value() const
    {
        ps_assert_msg(ok(), "Expected::value() on error: %s",
                      status_.message().c_str());
        return value_;
    }

    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    T value_{};
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_STATUS_HPP
