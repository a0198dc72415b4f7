#include "serve/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace picp::serve {

namespace {

// epoll user-data tags for the two fds that are not connections.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// True iff the peer address is 127.0.0.0/8 (the listener is IPv4-only).
bool peer_is_loopback(const sockaddr_storage& peer, socklen_t len) {
  if (peer.ss_family != AF_INET || len < sizeof(sockaddr_in)) return false;
  const auto* in4 = reinterpret_cast<const sockaddr_in*>(&peer);
  return (ntohl(in4->sin_addr.s_addr) >> 24) == 127;
}

/// "ip:port" for the access log; "unknown" for exotic address families.
std::string peer_string(const sockaddr_storage& peer, socklen_t len) {
  if (peer.ss_family == AF_INET && len >= sizeof(sockaddr_in)) {
    const auto* in4 = reinterpret_cast<const sockaddr_in*>(&peer);
    char ip[INET_ADDRSTRLEN];
    if (::inet_ntop(AF_INET, &in4->sin_addr, ip, sizeof ip) != nullptr)
      return std::string(ip) + ":" + std::to_string(ntohs(in4->sin_port));
  }
  return "unknown";
}

/// RED histogram bounds (µs), log-spaced from 100 µs to 3 s: cache hits
/// land in the first buckets, cold workload generations in the last.
constexpr std::array<double, 10> kRedBoundsUs = {
    1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6};

/// Bounded route family for RED metric names — a scanner probing random
/// paths must not be able to mint unbounded metric series.
const char* route_of(const std::string& path) {
  if (path == "/v1/predict") return "predict";
  if (path == "/v1/workload") return "workload";
  if (path == "/healthz") return "healthz";
  if (path == "/metricsz") return "metricsz";
  if (path == "/v1/models") return "models";
  if (path == "/v1/failpoints") return "failpoints";
  return "other";
}

/// Copy what the service states in reply headers into the trace the
/// access log reads: the cache tier and the stage a 504 died in. A member
/// reads its own copy, so a member of a stale leader logs "stale".
void note_reply(RequestTrace& trace, const HttpResponse& response) {
  if (response.header("x-picp-degraded") != nullptr)
    trace.cache_tier = "stale";
  else if (const std::string* tier = response.header("x-picp-cache"))
    trace.cache_tier = *tier == "hit" ? "hit" : "miss";
  if (const std::string* stage = response.header("x-picp-deadline-stage"))
    trace.deadline_stage = *stage;
}

const char* status_class_of(int status) {
  if (status >= 500) return "5xx";
  if (status >= 400) return "4xx";
  if (status >= 300) return "3xx";
  return "2xx";
}

/// A response the reactor answers itself. Its slot is filled directly (no
/// deliver() pass), so it defaults to close; answer() overrides that per
/// member when the connection is reusable.
HttpResponse error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.set_header("Connection", "close");
  response.set_header("Content-Type", "application/json");
  response.body = error_body(status, message);
  return response;
}

}  // namespace

EpollReactor::Metrics::Metrics(telemetry::MetricsRegistry& registry)
    : accepted(registry.counter("serve.accepted")),
      rejected_busy(registry.counter("serve.rejected_busy")),
      shed_queue(registry.counter("serve.shed_queue")),
      timeouts(registry.counter("serve.timeouts")),
      accept_backoffs(registry.counter("serve.accept_backoffs")),
      batch_leaders(registry.counter("serve.batch.leaders")),
      batch_members(registry.counter("serve.batch.members")),
      deadline_exceeded(registry.counter("serve.deadline_exceeded")),
      deadline_cache_wait(
          registry.counter("serve.deadline.stage.cache.wait")),
      peak_connections(registry.gauge("serve.peak_connections")),
      active_connections(registry.gauge("serve.active_connections")),
      queue_depth(registry.gauge("serve.queue_depth")),
      inflight(registry.gauge("serve.inflight")),
      cycle_us(registry.gauge("serve.reactor.cycle_us")) {}

EpollReactor::EpollReactor(const ReactorOptions& options, Handler handler,
                           ThreadPool* pool, ReactorClock clock)
    : options_(options), handler_(std::move(handler)), pool_(pool),
      clock_(std::move(clock)), metrics_(telemetry::registry()) {
  PICP_REQUIRE(handler_ != nullptr, "EpollReactor needs a handler");
  if (!clock_) clock_ = [] { return std::chrono::steady_clock::now(); };

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PICP_REQUIRE(epoll_fd_ >= 0,
               std::string("epoll_create1: ") + std::strerror(errno));

  int pipe_fds[2];
  PICP_REQUIRE(::pipe(pipe_fds) == 0,
               std::string("pipe: ") + std::strerror(errno));
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);
  set_cloexec(wake_read_fd_);
  set_cloexec(wake_write_fd_);

  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered; the loop fully drains the pipe
  ev.data.u64 = kWakeTag;
  PICP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev) == 0,
               std::string("epoll_ctl(wake): ") + std::strerror(errno));
}

EpollReactor::~EpollReactor() {
  for (auto& [id, conn] : conns_)
    if (conn->fd >= 0) ::close(conn->fd);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EpollReactor::listen_on(int listen_fd) {
  PICP_REQUIRE(listen_fd_ < 0, "listen_on called twice");
  listen_fd_ = listen_fd;
  set_nonblocking(listen_fd_);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenTag;
  PICP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
               std::string("epoll_ctl(listen): ") + std::strerror(errno));
}

void EpollReactor::adopt(int fd, bool from_loopback) {
  set_nonblocking(fd);
  set_cloexec(fd);
  metrics_.accepted.add();
  setup_conn(fd, from_loopback, /*counted=*/true, "local");
}

void EpollReactor::setup_conn(int fd, bool from_loopback, bool counted,
                              std::string peer) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_++;
  conn->from_loopback = from_loopback;
  conn->peer = std::move(peer);
  conn->parser = std::make_unique<RequestParser>(options_.limits);
  conn->counted = counted;
  if (options_.request_timeout_ms > 0) {
    conn->deadline =
        now() + std::chrono::milliseconds(options_.request_timeout_ms);
    next_expiry_ = std::min(next_expiry_, conn->deadline);
  } else {
    conn->deadline = TimePoint::max();
  }

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    PICP_LOG_WARN << "epoll_ctl(add conn): " << std::strerror(errno);
    ::close(fd);
    return;
  }
  if (counted) {
    const auto active = static_cast<double>(++active_connections_);
    if (active > metrics_.peak_connections.value())
      metrics_.peak_connections.set(active);
  }
  conns_.emplace(conn->id, std::move(conn));
}

void EpollReactor::handle_accept() {
  for (;;) {
    if (failpoint::any_armed()) {
      if (const auto action = failpoint::fire("http.accept")) {
        // EMFILE/ENFILE is the one accept(2) failure with its own recovery
        // path (pause + backoff); the errno action simulates it without
        // actually exhausting the fd table. Everything else keeps the old
        // accept-loop semantics: delay/crash apply inline, error drops the
        // connection on the floor.
        if (action->kind == failpoint::ActionKind::kErrno &&
            (action->errno_value == EMFILE ||
             action->errno_value == ENFILE)) {
          pause_accept(action->errno_value);
          return;
        }
        if (action->kind == failpoint::ActionKind::kDelay ||
            action->kind == failpoint::ActionKind::kCrash) {
          failpoint::apply(*action, "http.accept");
        } else {
          sockaddr_storage peer{};
          socklen_t peer_len = sizeof peer;
          const int fd =
              ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                        &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd >= 0) ::close(fd);
          continue;
        }
      }
    }

    sockaddr_storage peer{};
    socklen_t peer_len = sizeof peer;
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                             &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        pause_accept(errno);
        return;
      }
      PICP_LOG_WARN << "accept: " << std::strerror(errno);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const bool from_loopback = peer_is_loopback(peer, peer_len);

    if (active_connections_ >= options_.max_connections) {
      metrics_.rejected_busy.add();
      // The 503 goes through a normal (uncounted) connection so a slow
      // reader cannot block the reactor on the write.
      setup_conn(fd, from_loopback, /*counted=*/false,
                 peer_string(peer, peer_len));
      Conn* conn = conn_by_id(next_conn_id_ - 1);
      if (conn != nullptr) {
        conn->read_closed = true;
        const std::uint64_t seq = conn->next_seq++;
        conn->slots.emplace_back();
        fill_error(*conn, seq, busy_response(),
                   make_synthetic_trace(*conn));
        flush(*conn);
      }
      continue;
    }
    metrics_.accepted.add();
    setup_conn(fd, from_loopback, /*counted=*/true,
               peer_string(peer, peer_len));
  }
}

void EpollReactor::pause_accept(int err) {
  if (accept_paused_ || listen_fd_ < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_paused_ = true;
  accept_resume_ =
      now() + std::chrono::milliseconds(options_.accept_backoff_ms);
  metrics_.accept_backoffs.add();
  PICP_LOG_WARN << "accept: " << std::strerror(err) << " — pausing accepts "
                << options_.accept_backoff_ms << " ms";
}

void EpollReactor::resume_accept_if_due() {
  if (!accept_paused_ || now() < accept_resume_) return;
  accept_paused_ = false;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
    PICP_LOG_WARN << "epoll_ctl(resume listen): " << std::strerror(errno);
  // Connections that queued in the backlog during the pause predate the
  // re-registration edge; drain them now rather than waiting for the next
  // SYN to produce one.
  handle_accept();
}

int EpollReactor::run_once(int max_wait_ms) {
  resume_accept_if_due();

  epoll_event events[128];
  const int wait = next_wait_ms(max_wait_ms);
  int n = ::epoll_wait(epoll_fd_, events,
                       static_cast<int>(std::size(events)), wait);
  if (n < 0) {
    if (errno != EINTR)
      PICP_LOG_WARN << "epoll_wait: " << std::strerror(errno);
    n = 0;
  }
  // Cycle time starts when the wait returns: it measures the work of this
  // pass (events + dispatch + completions + timers), not the idle wait.
  const TimePoint cycle_start = now();

  for (int i = 0; i < n; ++i) {
    const std::uint64_t tag = events[i].data.u64;
    if (tag == kWakeTag) {
      char sink[256];
      while (::read(wake_read_fd_, sink, sizeof sink) > 0) {
      }
      continue;
    }
    if (tag == kListenTag) {
      handle_accept();
      continue;
    }
    Conn* conn = conn_by_id(tag);
    if (conn == nullptr) continue;  // closed earlier in this batch
    if ((events[i].events & EPOLLOUT) != 0) handle_writable(*conn);
    conn = conn_by_id(tag);
    if (conn == nullptr) continue;
    if ((events[i].events &
         (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0)
      handle_readable(*conn);
  }

  // New keys dispatch here — after every read of this cycle has had the
  // chance to join, before anything waits again.
  for (const auto& execution : opened_) dispatch(execution);
  opened_.clear();
  drain_completions();
  expire_deadlines();
  expire_members();
  resume_accept_if_due();
  reap_dead();
  publish_gauges();
  metrics_.cycle_us.set(
      std::chrono::duration<double, std::micro>(now() - cycle_start).count());
  return n;
}

void EpollReactor::run() {
  while (!stop_.load(std::memory_order_relaxed)) run_once(500);

  // Drain: stop accepting, let in-flight handler executions finish and
  // their responses flush (stopping() forces Connection: close on each),
  // then close whatever is left — idle keep-alive peers included.
  if (listen_fd_ >= 0 && !accept_paused_)
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_paused_ = true;
  accept_resume_ = TimePoint::max();

  const TimePoint drain_deadline =
      now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  for (;;) {
    bool busy = pending() > 0;
    if (!busy) {
      for (const auto& [id, conn] : conns_) {
        if (conn->fd < 0) continue;
        if (!conn->slots.empty() || conn->out.size() > conn->out_pos) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) break;
    if (now() >= drain_deadline) {
      PICP_LOG_WARN << "drain timeout: abandoning "
                    << connection_count() << " connection(s)";
      break;
    }
    run_once(50);
  }

  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    Conn* conn = conn_by_id(id);
    if (conn != nullptr) close_conn(*conn);
  }
  reap_dead();
  publish_gauges();
}

void EpollReactor::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    // Async-signal-safe; a full pipe still wakes the poller, so the result
    // is intentionally ignored.
    [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
  }
}

void EpollReactor::wake() {
  const char byte = 'c';
  [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
}

std::size_t EpollReactor::connection_count() const {
  std::size_t alive = 0;
  for (const auto& [id, conn] : conns_)
    if (conn->fd >= 0) ++alive;
  return alive;
}

void EpollReactor::handle_readable(Conn& conn) {
  if (failpoint::any_armed()) {
    try {
      failpoint::inject("http.read");
    } catch (const Error&) {
      close_conn(conn);
      return;
    }
  }
  char buf[16384];
  for (;;) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof buf, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    if (got == 0) {
      conn.read_closed = true;
      if (!conn.slots.empty() || conn.out.size() > conn.out_pos) {
        // Responses are still owed / buffered; the peer only half-closed.
        conn.close_after_flush = true;
      } else {
        // A clean close between messages, or a dirty EOF: the peer walked
        // away mid-message. Nothing useful answers a dirty EOF — a 400
        // would race the RST — so both just drop the connection.
        close_conn(conn);
      }
      return;
    }
    if (conn.read_closed) continue;  // shed/errored conn: discard bytes
    try {
      conn.parser->feed(buf, static_cast<std::size_t>(got));
    } catch (const HttpError& e) {
      // Framing is suspect from here on: answer the error, stop parsing,
      // close once the pipeline ahead of it has flushed.
      const std::uint64_t seq = conn.next_seq++;
      conn.slots.emplace_back();
      fill_error(conn, seq, error_response(e.status(), e.what()),
                 make_synthetic_trace(conn));
      conn.read_closed = true;
      break;
    }
    HttpRequest request;
    while (conn.parser->next(request)) {
      on_request(conn, std::move(request));
      if (conn.fd < 0) return;  // inline dispatch closed it
      if (conn.read_closed) break;
    }
  }
  if (conn.fd >= 0) flush(conn);
}

void EpollReactor::handle_writable(Conn& conn) { flush(conn); }

void EpollReactor::on_request(Conn& conn, HttpRequest&& request) {
  request.from_loopback = conn.from_loopback;
  const bool close_after = !request.keep_alive() ||
                           stop_.load(std::memory_order_relaxed);
  const std::uint64_t seq = conn.next_seq++;
  conn.slots.emplace_back();
  touch(conn);  // a complete message resets the receive/idle budget

  Member member{.conn_id = conn.id,
                .seq = seq,
                .close_after = close_after,
                .trace = make_trace(conn, request)};
  std::string key =
      options_.coalesce_key ? options_.coalesce_key(request) : std::string();
  if (!key.empty()) {
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      join(*it->second, std::move(member), request);
      return;
    }
  }

  // Queue SLO: a request that cannot join an in-flight execution is shed
  // rather than queued (joining is free — it adds no handler execution).
  if (pending() >= options_.max_pending_requests) {
    metrics_.shed_queue.add();
    fill_error(conn, seq, busy_response(), member.trace);
    conn.read_closed = true;
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  auto execution = std::make_shared<Execution>();
  execution->request = std::move(request);
  execution->members.push_back(std::move(member));
  if (key.empty()) {
    dispatch(execution);
    return;
  }
  execution->key = key;
  inflight_.emplace(std::move(key), execution);
  opened_.push_back(std::move(execution));
}

void EpollReactor::join(Execution& execution, Member&& member,
                        const HttpRequest& request) {
  // The member's own budget runs from its arrival, on the reactor clock.
  // A malformed header sets none: the leader's identical header earns the
  // 400 that answers both.
  if (const std::string* budget = request.header("x-picp-deadline-ms")) {
    try {
      const long long ms = parse_int(*budget);
      if (ms > 0) {
        member.deadline = now() + std::chrono::milliseconds(ms);
        next_member_expiry_ = std::min(next_member_expiry_, member.deadline);
      }
    } catch (const Error&) {
    }
  }
  if (execution.members.size() == 1) metrics_.batch_leaders.add();
  metrics_.batch_members.add();
  execution.members.push_back(std::move(member));
  ++joined_;
}

std::shared_ptr<RequestTrace> EpollReactor::make_trace(
    const Conn& conn, const HttpRequest& request) {
  auto trace = std::make_shared<RequestTrace>(clock_);
  const std::string* inbound = request.header("x-picp-trace-id");
  trace->id = inbound != nullptr ? sanitize_trace_id(*inbound)
                                 : generate_trace_id();
  trace->method = request.method;
  trace->path = target_path(request.target);
  trace->peer = conn.peer;
  trace->arrived_us = trace->now_us();
  trace->dispatch_us = trace->arrived_us;
  trace->handler_start_us = trace->arrived_us;
  return trace;
}

std::shared_ptr<RequestTrace> EpollReactor::make_synthetic_trace(
    const Conn& conn) {
  auto trace = std::make_shared<RequestTrace>(clock_);
  trace->id = generate_trace_id();
  trace->peer = conn.peer;
  trace->role = "none";  // no parsed request behind this response
  trace->arrived_us = trace->now_us();
  trace->dispatch_us = trace->arrived_us;
  trace->handler_start_us = trace->arrived_us;
  return trace;
}

void EpollReactor::fill_error(Conn& conn, std::uint64_t seq,
                              HttpResponse response,
                              const std::shared_ptr<RequestTrace>& trace) {
  if (trace != nullptr) {
    response.set_header("X-Picp-Trace-Id", trace->id);
    finalize_trace(*trace, response.status);
  }
  fill_slot(conn, seq, response, /*close_after=*/true);
}

void EpollReactor::finalize_trace(RequestTrace& trace, int status) {
  trace.status = status;
  trace.total_us = trace.now_us() - trace.arrived_us;
  ++finished_requests_;
  auto& reg = telemetry::registry();
  const std::string route = route_of(trace.path);
  reg.histogram("serve.red.total_us." + route + "." + status_class_of(status),
                kRedBoundsUs)
      .observe(trace.total_us);
  reg.histogram("serve.red.queue_us." + route, kRedBoundsUs)
      .observe(trace.batch_wait_us + trace.queue_wait_us);
  reg.histogram("serve.red.handler_us." + route, kRedBoundsUs)
      .observe(trace.handler_us);
  const bool sampled = options_.trace_sample_n > 0 &&
                       finished_requests_ % options_.trace_sample_n == 0;
  const bool slow =
      options_.slow_request_ms > 0 &&
      trace.total_us >= static_cast<double>(options_.slow_request_ms) * 1e3;
  if ((sampled || slow) && telemetry::tracing())
    trace.emit_spans(telemetry::tracer());
  if (options_.observer) options_.observer(trace);
}

HttpResponse EpollReactor::run_handler(const HttpRequest& request) {
  try {
    return handler_(request);
  } catch (const std::exception& e) {
    // A handler must never take the reactor (or a worker) down.
    PICP_LOG_WARN << "handler error: " << e.what();
    return error_response(500, e.what());
  }
}

HttpResponse EpollReactor::run_traced(const HttpRequest& request,
                                      RequestTrace* trace) {
  if (trace == nullptr) return run_handler(request);
  trace->handler_start_us = trace->now_us();
  trace->queue_wait_us = trace->handler_start_us - trace->dispatch_us;
  const telemetry::StageLog::Scope scope(trace);
  HttpResponse response = run_handler(request);
  trace->handler_us = trace->now_us() - trace->handler_start_us;
  return response;
}

void EpollReactor::dispatch(const std::shared_ptr<Execution>& execution) {
  RequestTrace* leader = execution->members[0].trace.get();
  leader->dispatch_us = leader->now_us();
  leader->batch_wait_us = leader->dispatch_us - leader->arrived_us;
  if (pool_ == nullptr) {
    const HttpResponse response = run_traced(execution->request, leader);
    pending_.fetch_sub(1, std::memory_order_relaxed);
    deliver(*execution, response);
    return;
  }
  pool_->submit([this, execution, leader] {
    // The worker touches only the request and the leader's trace; members
    // join and expire on the reactor thread meanwhile.
    HttpResponse response = run_traced(execution->request, leader);
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back({std::move(response), execution});
    }
    wake();
  });
}

void EpollReactor::drain_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  if (done.empty()) return;
  pending_.fetch_sub(done.size(), std::memory_order_relaxed);
  for (const Completion& completion : done)
    deliver(*completion.execution, completion.response);
}

void EpollReactor::deliver(Execution& execution,
                           const HttpResponse& response) {
  if (!execution.key.empty()) inflight_.erase(execution.key);
  const std::size_t size = execution.members.size();
  for (std::size_t i = 0; i < size; ++i) {
    Member& member = execution.members[i];
    if (member.answered) continue;  // its own deadline already passed
    member.trace->batch_size = size;
    if (i == 0) {
      member.trace->role = size > 1 ? "leader" : "solo";
      answer(member, response);
      continue;
    }
    // A member paid for no compute, so a generation-backed reply reads as
    // a cache hit; the body stays byte-identical to the leader's.
    HttpResponse copy = response;
    if (copy.header("x-picp-cache") != nullptr)
      copy.set_header("X-Picp-Cache", "hit");
    answer_member(member, std::move(copy));
  }
}

void EpollReactor::answer_member(Member& member, HttpResponse response) {
  member.answered = true;
  --joined_;
  // The member ran nothing: its whole request, arrival to now, was wait.
  RequestTrace& trace = *member.trace;
  trace.role = "member";
  trace.batch_wait_us = trace.now_us() - trace.arrived_us;
  answer(member, std::move(response));
}

void EpollReactor::answer(const Member& member, HttpResponse response) {
  RequestTrace& trace = *member.trace;
  note_reply(trace, response);
  Conn* conn = conn_by_id(member.conn_id);
  if (conn == nullptr) {
    // The member hung up before the answer — its record still closes.
    finalize_trace(trace, response.status);
    return;
  }
  // Only the Connection and trace-id headers are per-member.
  const bool close_after =
      member.close_after || stop_.load(std::memory_order_relaxed);
  response.set_header("Connection", close_after ? "close" : "keep-alive");
  response.set_header("X-Picp-Trace-Id", trace.id);
  fill_slot(*conn, member.seq, response, close_after);
  finalize_trace(trace, response.status);
  flush(*conn);
}

void EpollReactor::fill_slot(Conn& conn, std::uint64_t seq,
                             const HttpResponse& response, bool close_after) {
  if (seq < conn.base_seq) return;  // slot dropped by an earlier close
  const std::size_t index = static_cast<std::size_t>(seq - conn.base_seq);
  if (index >= conn.slots.size()) return;
  Slot& slot = conn.slots[index];
  slot.bytes = serialize_response(response);
  slot.ready = true;
  slot.close_after = close_after;
}

void EpollReactor::flush(Conn& conn) {
  if (conn.fd < 0) return;
  // Promote ready slots to the output buffer strictly in request order.
  while (!conn.slots.empty() && conn.slots.front().ready) {
    conn.out += conn.slots.front().bytes;
    const bool close_after = conn.slots.front().close_after;
    conn.slots.pop_front();
    ++conn.base_seq;
    if (close_after) {
      // Anything pipelined behind a Connection: close response is void;
      // jump base_seq so late completions for those slots are ignored.
      conn.close_after_flush = true;
      conn.read_closed = true;
      conn.slots.clear();
      conn.base_seq = conn.next_seq;
      break;
    }
  }

  if (conn.out.size() > conn.out_pos) {
    if (failpoint::any_armed()) {
      try {
        failpoint::inject("http.write");
      } catch (const Error&) {
        close_conn(conn);
        return;
      }
    }
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) update_epoll(conn, /*want_write=*/true);
        return;
      }
      if (n <= 0) {
        close_conn(conn);
        return;
      }
      conn.out_pos += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_pos = 0;
  }

  if (conn.want_write) update_epoll(conn, /*want_write=*/false);
  if (conn.close_after_flush ||
      (conn.read_closed && conn.slots.empty()))
    close_conn(conn);
}

void EpollReactor::expire_deadlines() {
  if (options_.request_timeout_ms <= 0) return;
  const TimePoint t = now();
  if (t < next_expiry_) return;
  next_expiry_ = TimePoint::max();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (conn->fd < 0) continue;
    if (conn->deadline <= t)
      expired.push_back(id);
    else
      next_expiry_ = std::min(next_expiry_, conn->deadline);
  }
  for (const std::uint64_t id : expired) {
    Conn* conn = conn_by_id(id);
    if (conn == nullptr) continue;
    if (!conn->slots.empty() || conn->out.size() > conn->out_pos) {
      // The conn is waiting on OUR handler or a slow flush, not on the
      // peer; the receive budget does not apply. Push it forward.
      touch(*conn);
      continue;
    }
    metrics_.timeouts.add();
    if (conn->parser->mid_message()) {
      // Slow-loris: a partial message that ran out its budget gets an
      // explicit 408 before the close.
      const std::uint64_t seq = conn->next_seq++;
      conn->slots.emplace_back();
      fill_error(*conn, seq, error_response(408, "receive timeout"),
                 make_synthetic_trace(*conn));
      conn->read_closed = true;
      flush(*conn);
    } else {
      close_conn(*conn);  // idle keep-alive expired; close silently
    }
  }
}

void EpollReactor::expire_members() {
  const TimePoint t = now();
  if (t < next_member_expiry_) return;
  next_member_expiry_ = TimePoint::max();
  for (const auto& [key, execution] : inflight_) {
    for (std::size_t i = 1; i < execution->members.size(); ++i) {
      Member& member = execution->members[i];
      if (member.answered) continue;
      if (member.deadline > t) {
        next_member_expiry_ = std::min(next_member_expiry_, member.deadline);
        continue;
      }
      // The execution it joined is still running: answer the member now,
      // as the service answers a budget spent at a stage boundary.
      HttpResponse response =
          error_response(504, DeadlineExceeded("cache.wait").what());
      response.set_header("X-Picp-Deadline-Stage", "cache.wait");
      metrics_.deadline_exceeded.add();
      metrics_.deadline_cache_wait.add();
      member.trace->batch_size = execution->members.size();
      answer_member(member, std::move(response));
    }
  }
}

void EpollReactor::close_conn(Conn& conn) {
  if (conn.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.slots.clear();
  conn.base_seq = conn.next_seq;
  if (conn.counted) --active_connections_;
  dead_.push_back(conn.id);
}

void EpollReactor::reap_dead() {
  for (const std::uint64_t id : dead_) conns_.erase(id);
  dead_.clear();
}

void EpollReactor::update_epoll(Conn& conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP |
              (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
    conn.want_write = want_write;
}

void EpollReactor::touch(Conn& conn) {
  if (options_.request_timeout_ms <= 0) return;
  conn.deadline =
      now() + std::chrono::milliseconds(options_.request_timeout_ms);
  next_expiry_ = std::min(next_expiry_, conn.deadline);
}

int EpollReactor::next_wait_ms(int max_wait_ms) const {
  if (max_wait_ms <= 0) return max_wait_ms;
  TimePoint earliest = TimePoint::max();
  if (options_.request_timeout_ms > 0) earliest = next_expiry_;
  earliest = std::min(earliest, next_member_expiry_);
  if (accept_paused_) earliest = std::min(earliest, accept_resume_);
  if (earliest == TimePoint::max()) return max_wait_ms;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        earliest - now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(
      std::min<long long>(left, static_cast<long long>(max_wait_ms)));
}

EpollReactor::Conn* EpollReactor::conn_by_id(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second->fd < 0) return nullptr;
  return it->second.get();
}

HttpResponse EpollReactor::busy_response() const {
  const std::string seconds = std::to_string(options_.retry_after_seconds);
  HttpResponse response =
      error_response(503, "server at capacity; retry after " + seconds + " s");
  response.set_header("Retry-After", seconds);
  return response;
}

void EpollReactor::publish_gauges() {
  const std::size_t executions = pending();
  metrics_.active_connections.set(static_cast<double>(active_connections_));
  metrics_.queue_depth.set(static_cast<double>(executions));
  // In-flight = handler executions + members joined onto them: everything
  // accepted but not yet answered.
  metrics_.inflight.set(static_cast<double>(executions + joined_));
}

}  // namespace picp::serve
