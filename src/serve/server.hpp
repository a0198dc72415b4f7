#pragma once

#include <cstdint>
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
  /// listen(2) backlog — connections the kernel may hold before accept.
  int listen_backlog = 128;
  /// NDJSON access log path; empty = no access log.
  std::string access_log_path;
  /// Rotate the access log when it exceeds this many bytes.
  std::size_t access_log_max_bytes = 64 * 1024 * 1024;
  /// The event loop's limits, coalescing key and sampling knobs. Its
  /// observer, if set, runs after the access-log write.
  ReactorOptions reactor;
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
/// reactor.drain_timeout_ms), then returns from run().
class HttpServer {
 public:
  using Handler = EpollReactor::Handler;

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

  /// True when the daemon should be taken out of rotation: draining, or
  /// the queue-depth SLO is saturated. `reason` (optional) says which.
  bool not_ready(std::string* reason) const;

 private:
  ServerOptions options_;
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
