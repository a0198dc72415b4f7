#pragma once

// Epoll reactor serving core. One non-blocking, edge-triggered event loop
// owns every connection: it accepts, reads, and incrementally parses
// (RequestParser) on the reactor thread, hands complete requests to a
// picp::ThreadPool, and flushes responses back through per-connection
// output buffers — no thread ever blocks on a socket, so 10k+ concurrent
// connections cost one thread plus a worker pool sized to the compute.
//
// Testability is a design input, not an afterthought: the clock is
// injectable (a ClockFn), sockets can be adopted from a socketpair, the
// loop can be single-stepped with run_once(0), and dispatch runs inline
// when no pool is supplied — so the protocol tests in tests/test_reactor.cpp
// replay partial reads, pipelined bursts, slow-loris stalls, mid-parse
// deadline expiry, and EMFILE backoff deterministically, without one real
// timer.
//
// Coalescing: a request whose `coalesce_key` is non-empty joins the open
// or running handler execution with the same key, until that execution's
// completion is delivered; every member receives a byte-identical copy of
// the rendered body. Joining never takes a worker and never sheds. A new
// key is dispatched at the end of the read phase, so twins parsed in the
// same event-loop cycle coalesce even under inline dispatch. A member
// whose own X-Picp-Deadline-Ms budget runs out first gets a 504 at that
// deadline, so a wedged execution cannot strand later requests.
//
// Backpressure has two layers, both 503 + Retry-After:
//   - connection cap (`max_connections`): shed at accept, as before;
//   - queue-depth SLO (`max_pending_requests`): shed complete requests
//     when the number of in-flight handler executions — published as the
//     `serve.queue_depth` telemetry gauge — is already at the limit.
//
// Counts (accepted, shed, timeouts, batch split, ...) live only in the
// telemetry registry; the reactor resolves each counter once and adds to
// it on every event, with or without a telemetry session.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/http.hpp"
#include "serve/http_parser.hpp"
#include "serve/request_trace.hpp"
#include "telemetry/registry.hpp"
#include "util/thread_pool.hpp"

namespace picp::serve {

struct ReactorOptions {
  /// Connections being serviced; above this, accept sheds with 503.
  std::size_t max_connections = 1024;
  /// In-flight handler executions; above this, complete requests shed
  /// with 503 instead of queueing unboundedly (the queue-depth SLO).
  std::size_t max_pending_requests = 256;
  /// Receive budget for one message and keep-alive idle budget (ms);
  /// <= 0 disables. Mid-message expiry is a 408; idle expiry a close.
  int request_timeout_ms = 30000;
  /// How long run() keeps the loop alive after stop to finish in-flight
  /// requests and flush buffered responses.
  int drain_timeout_ms = 10000;
  /// Advisory client back-off stamped on every 503.
  int retry_after_seconds = 1;
  /// How long to stop accepting after EMFILE/ENFILE before retrying.
  int accept_backoff_ms = 100;
  /// Content key of a request: requests with equal non-empty keys share
  /// one handler execution while it is in flight. Unset or "" = solo.
  std::function<std::string(const HttpRequest&)> coalesce_key;
  /// Emit Chrome-trace spans for every Nth finished request (0 = never),
  /// in a telemetry session that writes spans (telemetry::tracing()).
  std::uint64_t trace_sample_n = 0;
  /// Always emit spans for requests slower than this (0 = never), in the
  /// same sessions.
  int slow_request_ms = 0;
  /// Called on the reactor thread for every finished request — the access
  /// log hook (and the deterministic observability tests).
  std::function<void(const RequestTrace&)> observer;
  HttpLimits limits;
};

class EpollReactor {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// `pool == nullptr` runs handlers inline on the reactor thread —
  /// deterministic single-threaded mode for the protocol tests.
  EpollReactor(const ReactorOptions& options, Handler handler,
               ThreadPool* pool, ReactorClock clock = {});
  ~EpollReactor();
  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  /// Register a bound+listening fd (not owned; the caller closes it after
  /// run() returns). Accepted connections are owned by the reactor.
  void listen_on(int listen_fd);

  /// Take ownership of an already-connected fd (tests: one socketpair
  /// end). The fd is made non-blocking and enters the event loop like an
  /// accepted connection.
  void adopt(int fd, bool from_loopback = true);

  /// One event-loop cycle: wait at most `max_wait_ms` (0 = poll), handle
  /// readiness, dispatch new executions, drain worker completions, expire
  /// timers. Returns the number of epoll events handled.
  int run_once(int max_wait_ms);

  /// Loop until request_stop(), then drain: stop accepting, finish
  /// in-flight requests and flush responses (bounded by drain_timeout_ms),
  /// close everything.
  void run();

  /// Async-signal-safe: one atomic store + one write(2) to the wake pipe.
  void request_stop();

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// Open connections currently registered (tests poll this).
  std::size_t connection_count() const;

  /// Handler executions in flight. Safe from any thread: the readiness
  /// probe reads it on a worker.
  std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// One response slot in a connection's pipeline: filled in request
  /// order, flushed FIFO so pipelined responses never reorder.
  struct Slot {
    bool ready = false;
    std::string bytes;
    bool close_after = false;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    bool from_loopback = false;
    std::string peer;  // "ip:port"; "local" for adopted test sockets
    std::unique_ptr<RequestParser> parser;
    std::deque<Slot> slots;
    std::uint64_t base_seq = 0;  // absolute seq of slots.front()
    std::uint64_t next_seq = 0;  // seq the next parsed request gets
    std::string out;             // serialized bytes being flushed
    std::size_t out_pos = 0;
    bool want_write = false;     // EPOLLOUT armed
    bool read_closed = false;    // no further requests will be parsed
    bool close_after_flush = false;
    bool counted = false;        // contributes to active_connections
    TimePoint deadline{};        // receive/idle budget expiry
  };

  /// One request answered by a handler execution. Every member carries
  /// its own RequestTrace; the leader's (members[0]) also records the
  /// execution itself.
  struct Member {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    bool close_after = false;
    TimePoint deadline = TimePoint::max();  // joined members only
    bool answered = false;  // a joined member already got its own 504
    std::shared_ptr<RequestTrace> trace;
  };

  /// One handler execution and the requests it answers. Reactor thread
  /// only: a worker sees just the request and the leader's trace, so
  /// members may join (or expire) while it runs.
  struct Execution {
    std::string key;  // "" = solo, never joined
    HttpRequest request;
    std::vector<Member> members;
  };

  /// A finished handler execution on its way back to the reactor thread.
  struct Completion {
    HttpResponse response;
    std::shared_ptr<Execution> execution;
  };

  /// The reactor's registry metrics, resolved once at construction.
  struct Metrics {
    explicit Metrics(telemetry::MetricsRegistry& registry);
    telemetry::Counter& accepted;
    telemetry::Counter& rejected_busy;    // shed at accept (connection cap)
    telemetry::Counter& shed_queue;       // shed at dispatch (queue SLO)
    telemetry::Counter& timeouts;         // 408s + idle keep-alive closes
    telemetry::Counter& accept_backoffs;  // EMFILE/ENFILE pauses entered
    telemetry::Counter& batch_leaders;    // executions that gained a member
    telemetry::Counter& batch_members;    // requests joined onto one
    telemetry::Counter& deadline_exceeded;    // a member's own 504 counts
    telemetry::Counter& deadline_cache_wait;  // in both
    telemetry::Gauge& peak_connections;   // high-water mark of counted conns
    telemetry::Gauge& active_connections;
    telemetry::Gauge& queue_depth;
    telemetry::Gauge& inflight;
    telemetry::Gauge& cycle_us;
  };

  TimePoint now() const { return clock_(); }

  void handle_accept();
  void pause_accept(int err);
  void resume_accept_if_due();
  void setup_conn(int fd, bool from_loopback, bool counted,
                  std::string peer);
  HttpResponse run_handler(const HttpRequest& request);
  /// Wrap run_handler with the trace timeline (queue wait, handler wall
  /// time) and make the trace the thread's current StageLog.
  HttpResponse run_traced(const HttpRequest& request, RequestTrace* trace);
  /// One RequestTrace for a freshly parsed request (id from the inbound
  /// header or generated, arrival stamped on the reactor clock).
  std::shared_ptr<RequestTrace> make_trace(const Conn& conn,
                                           const HttpRequest& request);
  /// Trace for a response with no parsed request behind it (accept-shed
  /// 503, parse-error 400, receive-timeout 408).
  std::shared_ptr<RequestTrace> make_synthetic_trace(const Conn& conn);
  /// Fill a slot for an error produced outside deliver(): stamps the
  /// trace id header, finalizes the trace, fills the slot.
  void fill_error(Conn& conn, std::uint64_t seq, HttpResponse response,
                  const std::shared_ptr<RequestTrace>& trace);
  /// Close the request's observability record: totals, RED metrics, span
  /// sampling, observer. Reactor thread only.
  void finalize_trace(RequestTrace& trace, int status);
  void wake();
  void reap_dead();
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void on_request(Conn& conn, HttpRequest&& request);
  /// Add `member` to an in-flight execution (never sheds, takes no worker).
  void join(Execution& execution, Member&& member,
            const HttpRequest& request);
  /// Run an execution inline, or hand it to the pool.
  void dispatch(const std::shared_ptr<Execution>& execution);
  /// Answer every member of a finished execution.
  void deliver(Execution& execution, const HttpResponse& response);
  /// Fill one member's slot with its copy of a response, then finalize.
  void answer(const Member& member, HttpResponse response);
  /// answer() for a joined member: records its wait and annotations.
  void answer_member(Member& member, HttpResponse response);
  void fill_slot(Conn& conn, std::uint64_t seq, const HttpResponse& response,
                 bool close_after);
  void flush(Conn& conn);
  void drain_completions();
  void expire_deadlines();
  /// 504 every joined member whose own deadline has passed.
  void expire_members();
  void close_conn(Conn& conn);
  void update_epoll(Conn& conn, bool want_write);
  void touch(Conn& conn);
  int next_wait_ms(int max_wait_ms) const;
  Conn* conn_by_id(std::uint64_t id);
  HttpResponse busy_response() const;
  void publish_gauges();

  ReactorOptions options_;
  Handler handler_;
  ThreadPool* pool_;  // nullptr = inline dispatch
  ReactorClock clock_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  bool accept_paused_ = false;
  TimePoint accept_resume_{};

  std::uint64_t next_conn_id_ = 1;
  // Keyed by id, not fd: the kernel reuses fd numbers immediately, and
  // closes are deferred to end-of-cycle (an event batch may still carry
  // readiness for a connection an earlier event killed).
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<std::uint64_t> dead_;   // defunct conns to reap after events
  /// Keyed executions accepting members: opened this cycle or running.
  std::unordered_map<std::string, std::shared_ptr<Execution>> inflight_;
  /// Executions opened this cycle, dispatched after the read phase.
  std::vector<std::shared_ptr<Execution>> opened_;
  std::size_t joined_ = 0;  // members waiting on an in-flight execution
  TimePoint next_expiry_ = TimePoint::max();  // earliest conn deadline
  /// Earliest deadline among joined members still waiting.
  TimePoint next_member_expiry_ = TimePoint::max();

  std::atomic<bool> stop_{false};

  /// Finished requests (reactor thread only) — drives the every-Nth span
  /// sampling knob.
  std::uint64_t finished_requests_ = 0;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  /// Connections counted against max_connections (reactor thread only).
  std::size_t active_connections_ = 0;
  /// Handler executions in flight: changed on the reactor thread only.
  std::atomic<std::size_t> pending_{0};
  const Metrics metrics_;
};

}  // namespace picp::serve
