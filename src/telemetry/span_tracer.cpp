#include "telemetry/span_tracer.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "telemetry/json.hpp"
#include "util/atomic_file.hpp"

namespace picp::telemetry {

namespace {

/// One thread-local registration per (thread, tracer). A thread that
/// outlives a tracer (there is one process-wide tracer in practice) simply
/// re-registers if a different tracer instance appears — tests construct
/// their own tracers. Tracers are told apart by a process-unique id, not
/// by address: a tracer built where a destroyed one lived must not adopt
/// the buffer it never registered.
thread_local std::shared_ptr<void> t_buffer;   // type-erased ThreadBuffer
thread_local std::uint64_t t_owner = 0;
std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Fixed-point microseconds with the precision Perfetto keys on; avoids
/// %.17g noise in the emitted file.
std::string format_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

SpanTracer::SpanTracer()
    : epoch_(std::chrono::steady_clock::now()),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

double SpanTracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanTracer::ThreadBuffer& SpanTracer::local_buffer() {
  if (t_owner != id_ || t_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    {
      std::lock_guard<std::mutex> lock(buffers_mutex_);
      buffer->tid = next_tid_++;
      buffers_.push_back(buffer);
    }
    t_buffer = buffer;
    t_owner = id_;
  }
  return *static_cast<ThreadBuffer*>(t_buffer.get());
}

void SpanTracer::record(const char* name, const char* category, double ts_us,
                        double dur_us) {
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(SpanRecord{name, category, ts_us, dur_us});
}

void SpanTracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.name = name;
}

std::vector<SpanTracer::TaggedSpan> SpanTracer::collect() const {
  std::vector<TaggedSpan> out;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const SpanRecord& span : buffer->spans)
      out.push_back(TaggedSpan{span, buffer->tid});
  }
  return out;
}

std::size_t SpanTracer::span_count() const {
  std::size_t total = 0;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->spans.size();
  }
  return total;
}

std::string SpanTracer::chrome_trace_json() const {
  const int pid = static_cast<int>(::getpid());
  std::vector<TaggedSpan> spans = collect();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TaggedSpan& a, const TaggedSpan& b) {
                     if (a.span.ts_us != b.span.ts_us)
                       return a.span.ts_us < b.span.ts_us;
                     return a.tid < b.tid;
                   });

  // Thread metadata (names), gathered under the registry lock.
  std::vector<std::pair<int, std::string>> thread_names;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      thread_names.emplace_back(
          buffer->tid, buffer->name.empty()
                           ? "thread-" + std::to_string(buffer->tid)
                           : buffer->name);
    }
  }
  std::sort(thread_names.begin(), thread_names.end());

  // Hand-rolled emission: a big trace through Json values would double the
  // peak memory; the format is flat enough to print directly.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto append_event = [&](const std::string& body) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n";
    out += body;
  };
  for (const auto& [tid, name] : thread_names)
    append_event("{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" +
                 std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                 ",\"args\":{\"name\":\"" + json_escape(name) + "\"}}");
  for (const TaggedSpan& tagged : spans)
    append_event("{\"name\":\"" + json_escape(tagged.span.name) +
                 "\",\"cat\":\"" + json_escape(tagged.span.category) +
                 "\",\"ph\":\"X\",\"ts\":" + format_us(tagged.span.ts_us) +
                 ",\"dur\":" + format_us(tagged.span.dur_us) +
                 ",\"pid\":" + std::to_string(pid) +
                 ",\"tid\":" + std::to_string(tagged.tid) + "}");
  out += "\n]}\n";
  return out;
}

void SpanTracer::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  atomic_write_file(path, json.data(), json.size());
}

void SpanTracer::clear() {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->spans.clear();
  }
}

}  // namespace picp::telemetry
