#pragma once

// Structured NDJSON access log: one JSON object per line per finished
// request, written by the reactor thread through the observer hook (and by
// nothing else in the daemon — the mutex is for embedders and tests that
// drive a reactor from several threads). Size-based rotation: when the
// live file exceeds `max_bytes` it is renamed to `<path>.1` (replacing any
// previous rotation) and a fresh file is started, so a long-lived daemon
// holds at most ~2x max_bytes of log. A rename that fails counts in
// `serve.access_log.rotation_failures`; if the file cannot be reopened,
// logging stops and every later line counts in `serve.access_log.dropped`.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "serve/request_trace.hpp"

namespace picp::serve {

struct AccessLogOptions {
  std::string path;
  std::size_t max_bytes = 64 * 1024 * 1024;
};

/// Render one finished request as its NDJSON access-log line (no trailing
/// newline). Exposed for tests and for the observer-based embedders.
std::string access_log_line(const RequestTrace& trace);

class AccessLog {
 public:
  /// Opens (appends to) the log file; throws picp::Error when the path
  /// cannot be opened — a daemon asked to log must not silently not log.
  explicit AccessLog(AccessLogOptions options);
  ~AccessLog();
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Append one line (flushed immediately; a crashed daemon must not owe
  /// its operators the tail of the log) and rotate if over budget.
  void write(const RequestTrace& trace);

  std::uint64_t lines_written() const;

 private:
  void rotate_locked();

  AccessLogOptions options_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::size_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

}  // namespace picp::serve
