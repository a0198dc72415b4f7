#pragma once

// Per-request observability record. The reactor creates one RequestTrace
// per parsed request (including each member joined onto another request's
// execution), stamps the wait phases it alone can see (arrival → dispatch
// → handler start; a member's whole life is batch wait, arrival →
// delivery), and makes the leader's trace the thread's current StageLog
// around the handler call, so every telemetry::ScopedSpan the service and
// the pipeline open lands in it as an exclusive-time stage. After the
// response is filled the reactor copies the facts the service states in
// reply headers (cache tier, deadline stage) into the trace and finalizes
// it: RED metrics, optional Chrome-trace span emission (sampling knob +
// slow-request override, for a session that writes spans), and the
// structured access log via the observer hook.
//
// Stage names and roles are string literals — the span tracer stores the
// pointers, so storage must outlive it (same contract as ScopedSpan).
// All times come from the same injectable clock the reactor runs on, so
// protocol tests replay stage timings deterministically.

#include <cstdint>
#include <string>

#include "telemetry/telemetry.hpp"

namespace picp::serve {

/// Injectable time source; defaults to steady_clock. Protocol tests
/// substitute a manually-advanced clock so timeout behavior replays
/// deterministically. (Shared by EpollReactor and RequestTrace.)
using ReactorClock = telemetry::StageLog::Clock;
using telemetry::StageTiming;

class RequestTrace : public telemetry::StageLog {
 public:
  explicit RequestTrace(ReactorClock clock) : StageLog(std::move(clock)) {}

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

  /// Emit the request as Chrome-trace spans: one "request" span plus
  /// "queue" / "batch-wait" and every recorded stage, re-anchored so the
  /// request ends at the tracer's current time (the injected clock and
  /// the tracer epoch are unrelated; only offsets within the request are
  /// meaningful).
  void emit_spans(telemetry::SpanTracer& tracer) const;
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
