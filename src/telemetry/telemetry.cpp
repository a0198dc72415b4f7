#include "telemetry/telemetry.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace picp::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_tracing{false};
}

namespace {

/// Session bookkeeping behind one mutex (all cold-path).
struct Session {
  std::string directory;
  std::string command = "unknown";
  std::uint64_t config_fingerprint = 0;
  std::uint64_t threads = 1;
  std::vector<std::pair<std::string, std::string>> extra;
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  double cpu_started = 0.0;
};

std::mutex g_session_mutex;
Session g_session;

std::mutex g_phase_mutex;
/// Stable addresses for the life of the process (sessions only zero the
/// values), so call sites may cache `Phase&` in function-local statics.
std::map<std::string, std::unique_ptr<Phase>>& phase_map() {
  static auto* phases = new std::map<std::string, std::unique_ptr<Phase>>();
  return *phases;
}

double clock_seconds(clockid_t id) {
  struct timespec ts;
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string format_seconds(double seconds) {
  char buf[32];
  if (seconds >= 1.0)
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  else
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  return buf;
}

}  // namespace

double thread_cpu_seconds() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  return clock_seconds(CLOCK_THREAD_CPUTIME_ID);
#else
  return 0.0;
#endif
}

double process_cpu_seconds() {
#ifdef CLOCK_PROCESS_CPUTIME_ID
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
#else
  return 0.0;
#endif
}

MetricsRegistry& registry() {
  static auto* instance = new MetricsRegistry();
  return *instance;
}

SpanTracer& tracer() {
  static auto* instance = new SpanTracer();
  return *instance;
}

Phase& phase(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_phase_mutex);
  auto& slot = phase_map()[name];
  if (slot == nullptr) slot = std::make_unique<Phase>();
  return *slot;
}

std::vector<PhaseTotal> phase_totals() {
  std::lock_guard<std::mutex> lock(g_phase_mutex);
  std::vector<PhaseTotal> totals;
  totals.reserve(phase_map().size());
  for (const auto& [name, p] : phase_map())
    totals.push_back(
        {name, p->wall_seconds(), p->cpu_seconds(), p->count()});
  return totals;
}

StageLog::StageLog(Clock clock) : clock_(std::move(clock)) {
  if (!clock_) clock_ = [] { return std::chrono::steady_clock::now(); };
}

double StageLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             clock_().time_since_epoch())
      .count();
}

void ScopedSpan::start() {
  if (log_ != nullptr) {
    start_us_ = log_->now_us();
    parent_ = log_->open_;
    log_->open_ = this;
  } else {
    start_us_ = tracer().now_us();
  }
  if (phase_ != nullptr) cpu_start_ = thread_cpu_seconds();
}

void ScopedSpan::finish() {
  const double end_us = log_ != nullptr ? log_->now_us() : tracer().now_us();
  const double elapsed_us = end_us - start_us_;
  if (phase_ != nullptr)
    phase_->add(elapsed_us * 1e-6, thread_cpu_seconds() - cpu_start_);
  if (log_ != nullptr) {
    log_->open_ = parent_;
    if (parent_ != nullptr) parent_->child_us_ += elapsed_us;
    log_->stages_.push_back({name_, start_us_, elapsed_us - child_us_});
  } else if (tracing()) {
    tracer().record(name_, category_, start_us_, elapsed_us);
  }
}

void configure(const SessionOptions& options) {
  std::lock_guard<std::mutex> lock(g_session_mutex);
  registry().reset_values();
  tracer().clear();
  {
    std::lock_guard<std::mutex> phase_lock(g_phase_mutex);
    for (const auto& [name, p] : phase_map()) p->reset();
  }
  g_session = Session();
  g_session.directory = options.directory;
  g_session.cpu_started = process_cpu_seconds();
  if (options.enabled && !options.directory.empty())
    std::filesystem::create_directories(options.directory);
  detail::g_enabled.store(options.enabled, std::memory_order_relaxed);
  detail::g_tracing.store(options.enabled && !options.directory.empty(),
                          std::memory_order_relaxed);
  if (options.enabled) tracer().set_thread_name("main");
}

void set_run_info(const std::string& command,
                  std::uint64_t config_fingerprint, std::uint64_t threads) {
  std::lock_guard<std::mutex> lock(g_session_mutex);
  g_session.command = command;
  g_session.config_fingerprint = config_fingerprint;
  g_session.threads = threads;
}

void add_run_annotation(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(g_session_mutex);
  g_session.extra.emplace_back(key, value);
}

void publish_pool_stats(const ThreadPoolStats& stats) {
  auto& reg = registry();
  reg.gauge("threadpool.workers")
      .set(static_cast<double>(stats.worker_busy_seconds.size()));
  reg.counter("threadpool.tasks").add(stats.tasks);
  reg.counter("threadpool.queue_wait_us")
      .add(static_cast<std::uint64_t>(stats.queue_wait_seconds * 1e6));
  reg.gauge("threadpool.queue_wait_max_us")
      .set(stats.max_queue_wait_seconds * 1e6);
  reg.counter("threadpool.busy_us")
      .add(static_cast<std::uint64_t>(stats.busy_seconds * 1e6));
  const double denom =
      stats.lifetime_seconds *
      static_cast<double>(stats.worker_busy_seconds.size());
  reg.gauge("threadpool.utilization")
      .set(denom > 0.0 ? stats.busy_seconds / denom : 0.0);
  for (std::size_t i = 0; i < stats.worker_busy_seconds.size(); ++i)
    reg.gauge("threadpool.worker." + std::to_string(i) + ".busy_fraction")
        .set(stats.lifetime_seconds > 0.0
                 ? stats.worker_busy_seconds[i] / stats.lifetime_seconds
                 : 0.0);
}

RunManifest build_manifest() {
  std::lock_guard<std::mutex> lock(g_session_mutex);
  RunManifest manifest;
  manifest.command = g_session.command;
  manifest.git_describe = build_git_describe();
  manifest.hostname = current_hostname();
  manifest.created_utc = current_utc_timestamp();
  manifest.config_fingerprint = g_session.config_fingerprint;
  manifest.threads = g_session.threads;
  manifest.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_session.started)
          .count();
  manifest.process_cpu_seconds =
      process_cpu_seconds() - g_session.cpu_started;
  manifest.phases = phase_totals();
  // Drop never-hit phases: other subsystems register eagerly and a
  // manifest full of zeros buries the signal.
  std::erase_if(manifest.phases,
                [](const PhaseTotal& p) { return p.count == 0; });
  manifest.metrics = registry().snapshot();
  manifest.extra = g_session.extra;
  return manifest;
}

std::string summary_line() {
  std::vector<PhaseTotal> phases = phase_totals();
  std::erase_if(phases, [](const PhaseTotal& p) { return p.count == 0; });
  std::sort(phases.begin(), phases.end(),
            [](const PhaseTotal& a, const PhaseTotal& b) {
              return a.wall_seconds > b.wall_seconds;
            });
  std::string line = "telemetry:";
  const std::size_t top = std::min<std::size_t>(3, phases.size());
  if (top == 0) {
    line += " no phases recorded";
  } else {
    line += " top phases";
    for (std::size_t i = 0; i < top; ++i)
      line += (i == 0 ? " " : ", ") + phases[i].name + " " +
              format_seconds(phases[i].wall_seconds);
  }
  const MetricsSnapshot metrics = registry().snapshot();
  const double workers = metrics.gauge_value("threadpool.workers");
  if (workers > 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " | pool %.0f%% busy (%.0f workers, %llu tasks)",
                  100.0 * metrics.gauge_value("threadpool.utilization"),
                  workers,
                  static_cast<unsigned long long>(
                      metrics.counter_value("threadpool.tasks")));
    line += buf;
  }
  return line;
}

void finalize() {
  if (!enabled()) return;
  std::string directory;
  {
    std::lock_guard<std::mutex> lock(g_session_mutex);
    directory = g_session.directory;
  }
  const RunManifest manifest = build_manifest();
  if (!directory.empty()) {
    tracer().write_chrome_trace(directory + "/trace.json");
    write_manifest(manifest, directory + "/manifest.json");
    PICP_LOG_INFO << "telemetry written to " << directory
                  << "/{manifest,trace}.json";
  }
  PICP_LOG_INFO << summary_line();
  detail::g_enabled.store(false, std::memory_order_relaxed);
  detail::g_tracing.store(false, std::memory_order_relaxed);
}

}  // namespace picp::telemetry
