#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace picp::telemetry {

/// One completed span. `name` and `category` must point at storage that
/// outlives the tracer — in practice string literals, which is what every
/// instrumentation site uses; this keeps the record trivially copyable and
/// the hot path allocation-free once a thread's buffer has warmed up.
struct SpanRecord {
  const char* name = "";
  const char* category = "";
  double ts_us = 0.0;   // start, microseconds since the tracer epoch
  double dur_us = 0.0;  // duration, microseconds
};

/// Collects thread-attributed spans into per-thread buffers and serializes
/// them as Chrome trace-event JSON (the `{"traceEvents": [...]}` format
/// that chrome://tracing and Perfetto load directly).
///
/// Each thread appends to its own buffer — the only synchronization on the
/// record path is that buffer's own mutex, which is uncontended (the owner
/// is the sole writer; another thread takes it only at flush/clear time).
/// Buffers are kept alive by shared ownership after their thread exits, so
/// spans recorded by pool workers survive pool destruction until the final
/// flush.
class SpanTracer {
 public:
  SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Microseconds since the tracer epoch (steady clock).
  double now_us() const;

  /// Record a completed span on the calling thread's buffer.
  void record(const char* name, const char* category, double ts_us,
              double dur_us);

  /// Attach a display name to the calling thread ("main", "worker-3", ...).
  /// Threads that never call this are shown as "thread-<tid>".
  void set_thread_name(const std::string& name);

  /// All spans recorded so far, tagged with their thread id, in no
  /// particular order across threads.
  struct TaggedSpan {
    SpanRecord span;
    int tid = 0;
  };
  std::vector<TaggedSpan> collect() const;

  /// Total spans currently buffered (tests / overhead accounting).
  std::size_t span_count() const;

  /// Serialize every buffered span (sorted by start time) as Chrome
  /// trace-event JSON. Includes process/thread metadata events. Written
  /// atomically via util::AtomicFile.
  void write_chrome_trace(const std::string& path) const;

  /// Same serialization as a string (tests, embedding).
  std::string chrome_trace_json() const;

  /// Drop every buffered span and thread name (new session).
  void clear();

 private:
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<SpanRecord> spans;
    std::string name;
    int tid = 0;
  };

  ThreadBuffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  const std::uint64_t id_;  // process-unique; keys the thread buffers
  mutable std::mutex buffers_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  int next_tid_ = 0;
};

}  // namespace picp::telemetry
