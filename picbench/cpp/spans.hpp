#pragma once

// In-memory span recorder for the traced run. Spans are kept in memory
// while the benchmark runs and written once at exit as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing). Single-threaded: the
// decomposition it records runs on one thread.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "picbench.hpp"

namespace picbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    std::uint64_t request = 0;
  };

  /// RAII span: opens on construction under the innermost open span,
  /// closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name: each span's duration minus the time its
  /// direct children cover, summed over every span of that name.
  std::map<std::string, double> self_seconds() const;

  /// Write every span as a Chrome trace "X" event (one track per request).
  void write_chrome(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace picbench
