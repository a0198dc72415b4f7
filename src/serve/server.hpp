#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/access_log.hpp"
#include "serve/http.hpp"
#include "serve/reactor.hpp"
#include "util/thread_pool.hpp"

namespace picp::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = let the kernel pick an ephemeral port; read it back via port().
  std::uint16_t port = 0;
  /// Handler worker threads (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Open connections the reactor will service. Above this, accept sheds
  /// load: 503 + Retry-After, then close (backpressure).
  std::size_t max_connections = 1024;
  /// In-flight handler executions — the queue-depth SLO. Complete requests
  /// above this shed with 503 instead of queueing unboundedly.
  std::size_t max_pending_requests = 256;
  /// listen(2) backlog — connections the kernel may hold before accept.
  int listen_backlog = 128;
  /// Per-message receive budget and keep-alive idle budget.
  int request_timeout_ms = 30000;
  /// How long shutdown waits for in-flight requests before giving up.
  int drain_timeout_ms = 10000;
  /// Advisory client back-off stamped on 503 responses.
  int retry_after_seconds = 1;
  /// Accept pause after EMFILE/ENFILE before retrying.
  int accept_backoff_ms = 100;
  /// Content key under which in-flight requests share one handler
  /// execution (PredictionService::coalesce_key). Unset = none coalesce.
  std::function<std::string(const HttpRequest&)> coalesce_key;
  /// Emit Chrome-trace spans for every Nth finished request (0 = never).
  std::uint64_t trace_sample_n = 0;
  /// Always emit spans for requests slower than this (0 = never).
  int slow_request_ms = 0;
  /// NDJSON access log path; empty = no access log.
  std::string access_log_path;
  /// Rotate the access log when it exceeds this many bytes.
  std::size_t access_log_max_bytes = 64 * 1024 * 1024;
  /// Extra per-request observer (tests); runs after the access log write.
  std::function<void(const RequestTrace&)> observer;
  HttpLimits limits;
};

/// Point-in-time server counters (also published as telemetry metrics).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;  // shed with 503 at accept
  std::uint64_t shed_queue = 0;     // shed with 503 at the queue-depth SLO
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t batch_leaders = 0;
  std::uint64_t batch_members = 0;
  std::size_t active_connections = 0;
  std::size_t peak_connections = 0;
  std::size_t pending_requests = 0;  // handler executions in flight
};

/// HTTP/1.1 server: one epoll reactor thread (accept + parse + flush)
/// feeding a picp::ThreadPool with complete requests. A request whose
/// coalesce_key matches an in-flight execution joins it instead of taking
/// a worker (see EpollReactor). No TLS, no chunked encoding — this fronts
/// picpredict's own query clients on a trusted network, not the open
/// internet.
///
/// Lifecycle: construct (binds + listens, so port() is valid immediately),
/// then run() blocks until request_shutdown() — which is async-signal-safe
/// and therefore callable straight from a SIGINT/SIGTERM handler. Shutdown
/// stops accepting, lets in-flight requests drain (bounded by
/// drain_timeout_ms), then returns from run().
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds and listens; throws picp::Error (with errno detail) on failure.
  HttpServer(const ServerOptions& options, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Actual bound port (resolves port 0 to the kernel's pick).
  std::uint16_t port() const { return port_; }

  /// Handler worker count (resolves threads 0 to the pool's pick).
  std::size_t workers() const { return pool_->size(); }

  /// Run the reactor until shutdown; returns after the drain.
  void run();

  /// Async-signal-safe: one write(2) to the reactor's wake pipe.
  void request_shutdown();

  bool shutting_down() const { return reactor_->stopping(); }

  ServerStats stats() const;

  /// True when the daemon should be taken out of rotation: draining, or
  /// the queue-depth SLO is saturated. `reason` (optional) says which.
  bool not_ready(std::string* reason) const;

  /// Access log lines written so far (0 when no log is configured).
  std::uint64_t access_log_lines() const;

 private:
  ServerOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  // The log must outlive the reactor, whose observer writes into it.
  std::unique_ptr<AccessLog> access_log_;
  // Declaration order is a lifetime contract: the pool joins its workers
  // (which may still reference the reactor through in-flight tasks) before
  // the reactor is destroyed.
  std::unique_ptr<EpollReactor> reactor_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace picp::serve
