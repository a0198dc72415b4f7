#include "serve/request_trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace picp::serve {

namespace {

thread_local RequestTrace* t_current = nullptr;

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

RequestTrace::RequestTrace(ReactorClock clock) : clock_(std::move(clock)) {
  if (!clock_) clock_ = [] { return std::chrono::steady_clock::now(); };
}

double RequestTrace::now_us() const {
  return std::chrono::duration<double, std::micro>(
             clock_().time_since_epoch())
      .count();
}

void RequestTrace::add_stage(const char* name, double start_us,
                             double dur_us) {
  stages_.push_back({name, start_us, dur_us});
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
  for (const StageTiming& stage : stages_)
    tracer.record(stage.name, "request", ts(stage.start_us), stage.dur_us);
}

RequestTrace* RequestTrace::current() { return t_current; }

RequestTrace::Scope::Scope(RequestTrace* trace) : previous_(t_current) {
  t_current = (trace != nullptr && trace->armed) ? trace : nullptr;
}

RequestTrace::Scope::~Scope() { t_current = previous_; }

RequestTrace::Stage::Stage(const char* name) : trace_(t_current) {
  if (trace_ == nullptr) return;
  name_ = name;
  start_us_ = trace_->now_us();
  parent_ = trace_->active_;
  trace_->active_ = this;
}

RequestTrace::Stage::~Stage() {
  if (trace_ == nullptr) return;
  const double elapsed = trace_->now_us() - start_us_;
  trace_->active_ = parent_;
  if (parent_ != nullptr) parent_->child_us_ += elapsed;
  trace_->add_stage(name_, start_us_, elapsed - child_us_);
}

void RequestTrace::note_cache(const char* tier) {
  if (t_current != nullptr) t_current->cache_tier = tier;
}

void RequestTrace::note_deadline_stage(const std::string& stage) {
  if (t_current != nullptr) t_current->deadline_stage = stage;
}

}  // namespace picp::serve
