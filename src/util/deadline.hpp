#pragma once

// Per-request deadline propagation. A Deadline is a cheap value handle
// (one steady_clock time_point) threaded from the HTTP layer down through
// the pipeline; stage boundaries call check("stage") and a request that
// has run out of time unwinds with DeadlineExceeded — carrying the stage
// it died in — instead of burning a worker to completion. The default
// constructed Deadline is unlimited, so every call site that does not
// care keeps its old behavior for free.

#include <chrono>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace picp {

/// Thrown when a Deadline expires at a checked stage boundary; `stage()`
/// names the pipeline stage that was about to start, for 504 telemetry.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(std::string stage)
      : Error("deadline exceeded at stage '" + stage + "'"),
        stage_(std::move(stage)) {}

  const std::string& stage() const { return stage_; }

 private:
  std::string stage_;
};

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: never expires, checks are free of surprises.
  Deadline() = default;

  /// Expires `budget_ms` from now (<= 0 means already expired).
  static Deadline after_ms(std::int64_t budget_ms) {
    Deadline deadline;
    deadline.limited_ = true;
    deadline.expiry_ = Clock::now() + std::chrono::milliseconds(budget_ms);
    return deadline;
  }

  bool expired() const { return limited_ && Clock::now() >= expiry_; }

  /// Throw DeadlineExceeded(stage) if the budget is spent.
  void check(const char* stage) const {
    if (expired()) throw DeadlineExceeded(stage);
  }

 private:
  bool limited_ = false;
  Clock::time_point expiry_{};
};

}  // namespace picp
