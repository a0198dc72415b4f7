#pragma once

// Per-request observability record. The reactor creates one RequestTrace
// per parsed request (including each member joined onto another request's
// execution), stamps the wait phases it alone can see (arrival → dispatch
// → handler start; a member's whole life is batch wait, arrival →
// delivery), and the service annotates pipeline stages through a thread-local
// "current trace" that the reactor scopes around the handler call. After
// the response is filled the reactor finalizes the trace: RED metrics,
// optional Chrome-trace span emission (sampling knob + slow-request
// override), and the structured access log via the observer hook.
//
// Stage names and roles are string literals — the span tracer stores the
// pointers, so storage must outlive it (same contract as ScopedSpan).
// Stage timings are *exclusive*: a nested Stage subtracts its elapsed time
// from its parent, so queue + batch-wait + recorded stages sum to the
// request total without double counting (the property the deterministic
// span-sum test asserts).
//
// All times come from the same injectable clock the reactor runs on, so
// protocol tests replay stage timings deterministically.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/span_tracer.hpp"

namespace picp::serve {

/// Injectable time source; defaults to steady_clock. Protocol tests
/// substitute a manually-advanced clock so timeout behavior replays
/// deterministically. (Shared by EpollReactor and RequestTrace.)
using ReactorClock =
    std::function<std::chrono::steady_clock::time_point()>;

/// One exclusive-time pipeline stage ("cache", "generate", ...).
struct StageTiming {
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
};

class RequestTrace {
 public:
  explicit RequestTrace(ReactorClock clock);

  /// Microseconds on the injected clock (steady epoch, comparisons only).
  double now_us() const;

  // --- identity --------------------------------------------------------
  std::string id;      // inbound X-Picp-Trace-Id or generated
  std::string method;  // "" for responses with no parsed request (408 ...)
  std::string path;    // target with the query string stripped
  std::string peer;    // "ip:port", "local" for adopted test sockets
  int status = 0;
  const char* role = "solo";  // solo | leader | member | none
  std::size_t batch_size = 1;
  const char* cache_tier = "";  // "" | hit | miss | stale
  std::string deadline_stage;   // stage a 504 died in ("" otherwise)

  // --- timeline (all microseconds on the injected clock) ---------------
  double arrived_us = 0.0;        // request fully parsed
  double dispatch_us = 0.0;       // execution dispatched
  double handler_start_us = 0.0;  // handler entered (worker or inline)
  double batch_wait_us = 0.0;     // arrival → dispatch (member: delivery)
  double queue_wait_us = 0.0;     // dispatch → handler start
  double handler_us = 0.0;        // handler wall time
  double total_us = 0.0;          // arrival → response filled

  /// Stage recording enabled (an observer or the sampling knobs are
  /// live). When false every Stage constructed on this trace is a no-op,
  /// so a daemon with observability disarmed never touches the clock or
  /// the stage vector.
  bool armed = false;

  void add_stage(const char* name, double start_us, double dur_us);
  const std::vector<StageTiming>& stages() const { return stages_; }

  /// Emit the request as Chrome-trace spans: one "request" span plus
  /// "queue" / "batch-wait" and every recorded stage, re-anchored so the
  /// request ends at the tracer's current time (the injected clock and
  /// the tracer epoch are unrelated; only offsets within the request are
  /// meaningful).
  void emit_spans(telemetry::SpanTracer& tracer) const;

  // --- thread-local current trace (service-side annotation) ------------

  /// The trace scoped around the running handler; nullptr outside one (or
  /// when the trace is not armed).
  static RequestTrace* current();

  /// RAII: make `trace` current for the calling thread. Pass nullptr for
  /// a no-op scope.
  class Scope {
   public:
    explicit Scope(RequestTrace* trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RequestTrace* previous_;
  };

  /// RAII exclusive-time stage on the current trace; a no-op when no
  /// armed trace is current. `name` must be a string literal.
  class Stage {
   public:
    explicit Stage(const char* name);
    ~Stage();
    Stage(const Stage&) = delete;
    Stage& operator=(const Stage&) = delete;

   private:
    friend class RequestTrace;
    RequestTrace* trace_;
    const char* name_ = "";
    double start_us_ = 0.0;
    Stage* parent_ = nullptr;
    double child_us_ = 0.0;  // time claimed by nested stages
  };

  /// Annotate the current trace (no-ops without one).
  static void note_cache(const char* tier);
  static void note_deadline_stage(const std::string& stage);

 private:
  ReactorClock clock_;
  std::vector<StageTiming> stages_;
  Stage* active_ = nullptr;
};

/// Process-unique trace id ("p-" + 16 hex digits): a per-process random
/// seed XOR a monotonic counter, so concurrent daemons never collide and
/// ids stay greppable across restarts.
std::string generate_trace_id();

/// An inbound X-Picp-Trace-Id is honored only if it is 1–64 characters of
/// [A-Za-z0-9._-]; anything else (empty, oversized, control bytes) is
/// replaced by a generated id so log lines stay parseable.
std::string sanitize_trace_id(const std::string& inbound);

}  // namespace picp::serve
