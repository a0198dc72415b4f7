#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/manifest.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"

namespace picp {
struct ThreadPoolStats;  // util/thread_pool.hpp
}

/// Process-wide telemetry: one metrics registry + one span tracer +
/// per-run manifest assembly. The session is the one switch, and it gates
/// only time: phase totals and spans need a session, while every counter,
/// gauge and histogram in the registry records in every process. Without
/// a session a stage timer costs one relaxed load and one thread-local
/// read and allocates nothing.
namespace picp::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_tracing;
}

/// True while a session is open: stage timers add to their phase totals.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// True while the session buffers Chrome-trace spans: only a session with
/// a directory, because finalize() writes them nowhere else.
inline bool tracing() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// CPU time consumed by the calling thread (seconds); 0 where unsupported.
double thread_cpu_seconds();
/// CPU time consumed by the whole process (seconds); 0 where unsupported.
double process_cpu_seconds();

/// The process-wide instances. Always constructed, and the registry's
/// metrics record with or without a session, so cached Counter/Phase
/// references never dangle across sessions.
MetricsRegistry& registry();
SpanTracer& tracer();

/// Aggregated wall/CPU/count totals of one span family. Lookups take a
/// mutex; hot call sites fetch the reference once (function-local static)
/// and then accumulate lock-free.
class Phase {
 public:
  void add(double wall_seconds, double cpu_seconds) {
    wall_ns_.fetch_add(to_ns(wall_seconds), std::memory_order_relaxed);
    cpu_ns_.fetch_add(to_ns(cpu_seconds), std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  double wall_seconds() const {
    return static_cast<double>(wall_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  double cpu_seconds() const {
    return static_cast<double>(cpu_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() {
    wall_ns_.store(0, std::memory_order_relaxed);
    cpu_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  static std::uint64_t to_ns(double seconds) {
    return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
  }
  std::atomic<std::uint64_t> wall_ns_{0};
  std::atomic<std::uint64_t> cpu_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Stable-for-process-lifetime phase handle by name.
Phase& phase(const std::string& name);
/// Every registered phase, sorted by name (zero-count phases included).
std::vector<PhaseTotal> phase_totals();

/// One exclusive-time stage of a StageLog: its own time, minus the time of
/// the spans nested in it.
struct StageTiming {
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
};

class ScopedSpan;

/// The exclusive-time stages of one unit of work (the daemon keeps one per
/// request). While a log is current on a thread, every ScopedSpan that
/// closes on that thread appends its stage, timed on the log's clock, so
/// a log's stages sum to the time they cover without double counting.
class StageLog {
 public:
  /// Injectable time source; empty = steady_clock. Protocol tests pass a
  /// manually advanced clock so stage timings replay deterministically.
  using Clock = std::function<std::chrono::steady_clock::time_point()>;

  explicit StageLog(Clock clock = {});

  /// Microseconds on the log's clock (steady epoch, comparisons only).
  double now_us() const;
  const std::vector<StageTiming>& stages() const { return stages_; }

  /// The log current on the calling thread; nullptr outside a Scope.
  static StageLog* current() { return current_; }

  /// RAII: make `log` current for the calling thread.
  class Scope {
   public:
    explicit Scope(StageLog* log) : previous_(current_) { current_ = log; }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageLog* previous_;
  };

 private:
  friend class ScopedSpan;
  static constinit inline thread_local StageLog* current_ = nullptr;
  Clock clock_;
  std::vector<StageTiming> stages_;
  ScopedSpan* open_ = nullptr;  // innermost open span on this log
};

/// RAII stage timer, the program's one way to time a stage. On close it
/// adds wall and thread-CPU time to its phase total if a session is open,
/// and appends its exclusive time to the thread's current StageLog if
/// there is one. Only with no log current does it record a Chrome-trace
/// span itself, and then only when the session writes spans (tracing());
/// a log's stages reach the trace when its owner emits them. With no
/// session and no log current a span costs one relaxed load and one
/// thread-local read; nothing is allocated or clocked. `name` must be a
/// string literal (it is stored, not copied).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Phase& phase_handle,
             const char* category = "picp")
      : name_(name), category_(category),
        phase_(enabled() ? &phase_handle : nullptr),
        log_(StageLog::current()) {
    if (phase_ != nullptr || log_ != nullptr) start();
  }
  explicit ScopedSpan(const char* name, const char* category = "picp")
      : name_(name), category_(category),
        phase_(enabled() ? &phase(name) : nullptr),
        log_(StageLog::current()) {
    if (phase_ != nullptr || log_ != nullptr) start();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (phase_ != nullptr || log_ != nullptr) finish();
  }

 private:
  void start();
  void finish();

  const char* name_;
  const char* category_;
  Phase* phase_;
  StageLog* log_;
  ScopedSpan* parent_ = nullptr;  // enclosing open span on log_
  double start_us_ = 0.0;
  double cpu_start_ = 0.0;
  double child_us_ = 0.0;  // time claimed by spans nested on log_
};

// --- Session lifecycle ------------------------------------------------------

struct SessionOptions {
  /// `false` leaves no session open: configure() still zeroes every value,
  /// and registry metrics still record, but no phase total or span is kept.
  bool enabled = true;
  /// Output directory for finalize(); empty = metrics and phase totals
  /// in memory only (the daemon without --telemetry-dir, tests), and no
  /// span is buffered.
  std::string directory;
};

/// Start a telemetry session: zero all metric values, drop buffered spans,
/// create the output directory, and flip the global enable flag (and the
/// tracing flag, for a session with a directory). Safe to call
/// repeatedly; cached Counter/Phase references stay valid.
void configure(const SessionOptions& options);

/// Identity of the run, stamped into the manifest by finalize().
void set_run_info(const std::string& command,
                  std::uint64_t config_fingerprint, std::uint64_t threads);
/// Free-form manifest "extra" entry (models path, ranks list, ...).
void add_run_annotation(const std::string& key, const std::string& value);

/// Publish thread-pool observability (tasks executed, queue wait,
/// per-worker busy fractions) into the registry as `threadpool.*` metrics.
void publish_pool_stats(const ThreadPoolStats& stats);

/// Assemble the manifest for the current session (no I/O).
RunManifest build_manifest();

/// One info-level line: total wall/CPU, the hottest phases, and pool
/// utilization — the "signal without opening the JSON" summary.
std::string summary_line();

/// End the session: write `<dir>/trace.json` (Chrome trace events) and
/// `<dir>/manifest.json` (atomically), log the summary line at info level,
/// and disable collection. No-op when the session is disabled.
void finalize();

}  // namespace picp::telemetry
