#include "spans.hpp"

#include <fstream>

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace picbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t request)
    : recorder_(&recorder),
      index_(static_cast<int>(recorder.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  span.request = request;
  span.start_ns = recorder.now_ns();
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  recorder_->spans_[static_cast<std::size_t>(index_)].end_ns =
      recorder_->now_ns();
  recorder_->open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  // Children of one parent never overlap (one thread, strictly nested), so
  // the time they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) *
        1e-9;
  return self;
}

void SpanRecorder::write_chrome(const std::string& path) const {
  picp::Json events = picp::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    picp::Json args = picp::Json::object();
    args.set("id", picp::Json(static_cast<std::uint64_t>(i)));
    args.set("parent", picp::Json(static_cast<std::int64_t>(span.parent)));
    args.set("request", picp::Json(span.request));
    picp::Json event = picp::Json::object();
    event.set("name", picp::Json(span.name));
    event.set("cat", picp::Json("picbench"));
    event.set("ph", picp::Json("X"));
    event.set("ts", picp::Json(static_cast<double>(span.start_ns) * 1e-3));
    event.set("dur", picp::Json(static_cast<double>(span.end_ns -
                                                    span.start_ns) *
                                1e-3));
    event.set("pid", picp::Json(1));
    event.set("tid", picp::Json(span.request));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  picp::Json doc = picp::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", picp::Json("ms"));
  std::ofstream out(path);
  PICP_REQUIRE(out.is_open(), "cannot write span file " + path);
  out << doc.dump() << '\n';
}

}  // namespace picbench
