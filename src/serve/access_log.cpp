#include "serve/access_log.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace picp::serve {

std::string access_log_line(const RequestTrace& trace) {
  Json line = Json::object();
  line.set("ts", Json(std::chrono::duration<double>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()));
  line.set("trace_id", Json(trace.id));
  line.set("peer", Json(trace.peer));
  line.set("method", Json(trace.method));
  line.set("path", Json(trace.path));
  line.set("status", Json(trace.status));
  line.set("batch_role", Json(std::string(trace.role)));
  line.set("batch_size",
           Json(static_cast<std::uint64_t>(trace.batch_size)));
  line.set("cache", Json(std::string(trace.cache_tier)));
  line.set("deadline_stage", Json(trace.deadline_stage));
  line.set("batch_wait_us", Json(trace.batch_wait_us));
  line.set("queue_us", Json(trace.queue_wait_us));
  line.set("handler_us", Json(trace.handler_us));
  line.set("total_us", Json(trace.total_us));
  Json stages = Json::object();
  for (const StageTiming& stage : trace.stages()) {
    // A stage that runs twice in one request (e.g. "generate" for a
    // multi-rank body) accumulates rather than overwrites.
    const Json* previous = stages.find(stage.name);
    const double base = previous != nullptr ? previous->as_double() : 0.0;
    stages.set(stage.name, Json(base + stage.dur_us));
  }
  line.set("stages", std::move(stages));
  return line.dump();
}

AccessLog::AccessLog(AccessLogOptions options)
    : options_(std::move(options)) {
  PICP_REQUIRE(!options_.path.empty(), "access log needs a path");
  file_ = std::fopen(options_.path.c_str(), "ae");
  if (file_ == nullptr)
    throw Error("cannot open access log " + options_.path + ": " +
                std::strerror(errno));
  const long at = std::ftell(file_);
  bytes_ = at > 0 ? static_cast<std::size_t>(at) : 0;
}

AccessLog::~AccessLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
}

void AccessLog::write(const RequestTrace& trace) {
  const std::string line = access_log_line(trace);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {  // a failed reopen disabled the log
    telemetry::registry().counter("serve.access_log.dropped").add();
    return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
  bytes_ += line.size() + 1;
  ++lines_;
  if (bytes_ > options_.max_bytes) rotate_locked();
}

std::uint64_t AccessLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

void AccessLog::rotate_locked() {
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = options_.path + ".1";
  if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
    PICP_LOG_WARN << "access log rotation failed: " << std::strerror(errno);
    telemetry::registry().counter("serve.access_log.rotation_failures").add();
  }
  file_ = std::fopen(options_.path.c_str(), "ae");
  if (file_ == nullptr) {
    PICP_LOG_WARN << "cannot reopen access log " << options_.path << ": "
                  << std::strerror(errno) << " — logging disabled";
    return;
  }
  bytes_ = 0;
}

}  // namespace picp::serve
