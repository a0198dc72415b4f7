#include "serve/request_trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace picp::serve {

namespace {

std::uint64_t process_seed() {
  // Mix the pid with the process start time so two daemons started in the
  // same second still diverge. This is an id namespace, not cryptography.
  static const std::uint64_t seed = [] {
    const auto t = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    std::uint64_t x = t ^ (static_cast<std::uint64_t>(::getpid()) << 32);
    // splitmix64 finalizer: spread the low-entropy inputs over 64 bits.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }();
  return seed;
}

bool id_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

std::string generate_trace_id() {
  static std::atomic<std::uint64_t> next{1};
  const std::uint64_t value =
      process_seed() ^ next.fetch_add(1, std::memory_order_relaxed);
  char buf[24];
  std::snprintf(buf, sizeof buf, "p-%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string sanitize_trace_id(const std::string& inbound) {
  if (inbound.empty() || inbound.size() > 64) return generate_trace_id();
  for (const char c : inbound)
    if (!id_char(c)) return generate_trace_id();
  return inbound;
}

void RequestTrace::emit_spans(telemetry::SpanTracer& tracer) const {
  // The injected clock and the tracer epoch are unrelated; re-anchor the
  // request so it *ends* at the tracer's now — offsets within the request
  // (and therefore stage durations) are preserved exactly.
  const double anchor = tracer.now_us();
  const double end = arrived_us + total_us;
  const auto ts = [&](double t) { return anchor - (end - t); };
  tracer.record("request", "request", ts(arrived_us), total_us);
  tracer.record("batch-wait", "request", ts(arrived_us), batch_wait_us);
  tracer.record("queue", "request", ts(dispatch_us), queue_wait_us);
  for (const StageTiming& stage : stages())
    tracer.record(stage.name, "request", ts(stage.start_us), stage.dur_us);
}

}  // namespace picp::serve
