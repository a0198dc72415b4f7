// Deterministic protocol tests for the epoll reactor (src/serve/reactor).
// Every test drives the reactor through adopted socketpair ends and a
// manually-advanced clock, single-stepping the event loop with
// run_once(0) — so partial reads, pipelined bursts, slow-loris stalls,
// mid-parse deadline expiry, EMFILE accept backoff, and coalescing onto
// in-flight executions replay exactly, with no real timers and no sleeps
// on the assertion path. Tests that need an execution to stay in flight
// park it on a gate in a real ThreadPool worker.
//
// The last section is the coalescing property test against the real
// PredictionService: N equivalent /v1/workload queries in flight together
// must cost exactly ONE workload generation (proven through /metricsz
// served by the same reactor) and every member must receive a
// byte-identical body; a mixed-config storm must never cross-contaminate.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "picsim/sim_driver.hpp"
#include "serve/access_log.hpp"
#include "serve/http_parser.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "util/failpoint.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace picp::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// The scripted peer of one adopted connection: raw byte I/O plus an
/// incremental response scanner, so tests assert on exactly the wire
/// bytes the reactor produced.
struct Peer {
  int fd = -1;
  std::string inbox;

  explicit Peer(int raw_fd = -1) : fd(raw_fd) {}
  Peer(Peer&& other) noexcept : fd(other.fd), inbox(std::move(other.inbox)) {
    other.fd = -1;
  }
  Peer& operator=(Peer&& other) noexcept {
    if (fd >= 0) ::close(fd);
    fd = other.fd;
    inbox = std::move(other.inbox);
    other.fd = -1;
    return *this;
  }
  ~Peer() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::string& bytes) const {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Drain whatever the reactor has flushed so far into the inbox.
  void pump() {
    char buf[8192];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) break;
      inbox.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// True once the reactor closed its end (after pump() drained the tail).
  bool closed() const {
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT | MSG_PEEK);
    return n == 0;
  }

  /// Parse every complete response sitting in the inbox, consuming them.
  std::vector<HttpResponse> take_responses() {
    std::vector<HttpResponse> out;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t end = wire::find_head_end(inbox, pos);
      if (end == std::string::npos) break;
      std::string start_line;
      HttpResponse response;
      wire::parse_head_block(inbox.substr(pos, end - pos), start_line,
                             response.headers);
      response.status = static_cast<int>(
          parse_int(start_line.substr(start_line.find(' ') + 1, 3)));
      HttpLimits limits;
      const std::size_t body =
          wire::content_length_of(response.headers, limits);
      if (inbox.size() - end < body) break;
      response.body = inbox.substr(end, body);
      pos = end + body;
      out.push_back(std::move(response));
    }
    inbox.erase(0, pos);
    return out;
  }
};

/// Blocking-free echo handler: 200, body = "<method> <target>|<body>".
HttpResponse echo_handler(const HttpRequest& request) {
  HttpResponse response;
  response.set_header("Content-Type", "text/plain");
  response.body = request.method + " " + request.target + "|" + request.body;
  return response;
}

/// A reactor count: every count lives in the telemetry registry.
std::uint64_t count(const char* name) {
  return telemetry::registry().counter(name).value();
}

/// Requests answered: the summed count of the serve.red.total_us.*
/// histograms, where every finished request lands once.
std::uint64_t red_requests() {
  std::uint64_t total = 0;
  for (const auto& h : telemetry::registry().snapshot().histograms)
    if (h.name.rfind("serve.red.total_us.", 0) == 0) total += h.count;
  return total;
}

class ReactorTest : public testing::Test {
 protected:
  // An in-memory session: every count starts at zero.
  void SetUp() override { telemetry::configure(telemetry::SessionOptions{}); }
  void TearDown() override { failpoint::disarm_all(); }

  ReactorOptions quick_options() {
    ReactorOptions options;
    options.request_timeout_ms = 1000;
    options.accept_backoff_ms = 100;
    // The echo handler's answer is a function of the target and body, so
    // those bytes (plus the deadline, as in the service's key) are its
    // content key.
    options.coalesce_key = [](const HttpRequest& r) -> std::string {
      if (r.method != "POST" ||
          (r.target != "/v1/workload" && r.target != "/v1/predict"))
        return "";
      const std::string* deadline = r.header("x-picp-deadline-ms");
      return r.target + '\n' + r.body + '\n' +
             (deadline != nullptr ? *deadline : "-");
    };
    return options;
  }

  /// Parks every POST handler until open(): keeps an execution in flight
  /// on a real worker for as long as a test needs it there.
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    std::atomic<int> blocked{0};  // POST executions that reached the gate

    void open() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
  };

  /// The echo handler behind gate_.
  EpollReactor::Handler gated_echo() {
    return [this](const HttpRequest& request) {
      if (request.method == "POST") {
        gate_.blocked.fetch_add(1);
        std::unique_lock<std::mutex> lock(gate_.mutex);
        gate_.cv.wait(lock, [this] { return gate_.released; });
      }
      return echo_handler(request);
    };
  }

  /// Two workers, joined (after the gate opens) before the reactor dies.
  ThreadPool* pool() {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(2);
    return pool_.get();
  }

  /// Step the loop with bounded real waits until `done` holds; false if
  /// it still does not after ~10 s. For completions from pool workers.
  template <typename Done>
  bool spin_until(Done done) {
    for (int i = 0; i < 400; ++i) {
      if (done()) return true;
      reactor_->run_once(25);
    }
    return done();
  }

  void make(const ReactorOptions& options, EpollReactor::Handler handler,
            ThreadPool* pool = nullptr) {
    now_ = Clock::now();
    reactor_ = std::make_unique<EpollReactor>(
        options, std::move(handler), pool, [this] { return now_; });
  }

  Peer adopt_peer() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reactor_->adopt(fds[0]);
    return Peer(fds[1]);
  }

  void advance_ms(int ms) { now_ += std::chrono::milliseconds(ms); }

  /// Step the loop and pump every peer handed in.
  void cycle(std::initializer_list<Peer*> peers = {}) {
    reactor_->run_once(0);
    for (Peer* peer : peers) peer->pump();
  }

  /// Bound listener on an ephemeral port; returns the port.
  std::uint16_t make_listener() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr), 0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len), 0);
    reactor_->listen_on(listen_fd_);
    return ntohs(addr.sin_port);
  }

  Clock::time_point now_{};
  Gate gate_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<EpollReactor> reactor_;
  int listen_fd_ = -1;

 public:
  ~ReactorTest() override {
    gate_.open();      // a failed test may leave a worker parked
    pool_.reset();     // no task may outlive the reactor
    reactor_.reset();  // closes its conns first
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
};

// --- incremental parsing ----------------------------------------------------

TEST_F(ReactorTest, PartialReadsAssembleOneRequest) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();

  peer.send("GET /hea");
  cycle({&peer});
  EXPECT_TRUE(peer.take_responses().empty()) << "responded to half a line";

  peer.send("lthz HTTP/1.1\r\nHost: x");
  cycle({&peer});
  EXPECT_TRUE(peer.take_responses().empty()) << "responded to half a head";

  peer.send("\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "GET /healthz|");
  EXPECT_FALSE(peer.closed()) << "keep-alive connection was closed";
  EXPECT_EQ(red_requests(), 1u);
}

TEST_F(ReactorTest, BodyArrivingByteByByteCompletesTheRequest) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\n");
  cycle({&peer});
  EXPECT_TRUE(peer.take_responses().empty());
  for (const char* byte : {"a", "b"}) {
    peer.send(byte);
    cycle({&peer});
    EXPECT_TRUE(peer.take_responses().empty());
  }
  peer.send("c");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "POST /echo|abc");
}

TEST_F(ReactorTest, PipelinedBurstAnswersInOrderOnOneConnection) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nbb"
      "GET /c HTTP/1.1\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].body, "GET /a|");
  EXPECT_EQ(responses[1].body, "POST /b|bb");
  EXPECT_EQ(responses[2].body, "GET /c|");
  EXPECT_FALSE(peer.closed());
  EXPECT_EQ(red_requests(), 3u);
}

TEST_F(ReactorTest, MalformedRequestGets400ThenClose) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("NOT A REQUEST\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 400);
  EXPECT_TRUE(peer.closed()) << "poisoned framing must not be reused";
}

TEST_F(ReactorTest, OversizedHeaderBlockGets431) {
  ReactorOptions options = quick_options();
  options.limits.max_header_bytes = 128;
  make(options, echo_handler);
  Peer peer = adopt_peer();
  peer.send("GET / HTTP/1.1\r\nX-Pad: " + std::string(200, 'x') + "\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 431);
  EXPECT_TRUE(peer.closed());
}

// --- deadlines off the injectable clock -------------------------------------

TEST_F(ReactorTest, SlowLorisGets408AtTheReceiveBudget) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("POST /v1/workload HTTP/1.1\r\nContent-Le");  // never finishes
  cycle({&peer});

  advance_ms(999);
  cycle({&peer});
  EXPECT_TRUE(peer.take_responses().empty()) << "timed out before the budget";
  EXPECT_FALSE(peer.closed());

  advance_ms(2);
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 408);
  EXPECT_TRUE(peer.closed());
  EXPECT_EQ(count("serve.timeouts"), 1u);
}

TEST_F(ReactorTest, DribblingBytesDoesNotExtendTheMessageDeadline) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("GET / HT");
  cycle({&peer});
  // 900 ms in, the peer dribbles a few more bytes. The budget is per
  // message, not per byte — the deadline must NOT reset.
  advance_ms(900);
  peer.send("TP/1.1\r\nHost:");
  cycle({&peer});
  advance_ms(200);  // 1100 ms since the message started
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 408);
  EXPECT_TRUE(peer.closed());
}

TEST_F(ReactorTest, IdleKeepAliveExpiresSilently) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("GET / HTTP/1.1\r\n\r\n");
  cycle({&peer});
  ASSERT_EQ(peer.take_responses().size(), 1u);

  advance_ms(1001);
  cycle({&peer});
  EXPECT_TRUE(peer.take_responses().empty())
      << "idle expiry must not write anything";
  EXPECT_TRUE(peer.closed());
  EXPECT_EQ(count("serve.timeouts"), 1u);
}

TEST_F(ReactorTest, CompletedRequestResetsTheIdleBudget) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  advance_ms(900);
  peer.send("GET / HTTP/1.1\r\n\r\n");  // completes at t=900
  cycle({&peer});
  ASSERT_EQ(peer.take_responses().size(), 1u);
  advance_ms(900);  // t=1800 < 900+1000: still inside the refreshed budget
  cycle({&peer});
  EXPECT_FALSE(peer.closed());
  peer.send("GET /again HTTP/1.1\r\n\r\n");
  cycle({&peer});
  EXPECT_EQ(peer.take_responses().size(), 1u);
}

// --- EOF handling -----------------------------------------------------------

TEST_F(ReactorTest, CleanEofBetweenMessagesClosesQuietly) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("GET / HTTP/1.1\r\n\r\n");
  cycle({&peer});
  ASSERT_EQ(peer.take_responses().size(), 1u);
  ::shutdown(peer.fd, SHUT_WR);
  cycle({&peer});
  EXPECT_TRUE(peer.take_responses().empty());
  EXPECT_TRUE(peer.closed());
  EXPECT_EQ(reactor_->connection_count(), 0u);
}

TEST_F(ReactorTest, ConnectionCloseRequestIsHonored) {
  make(quick_options(), echo_handler);
  Peer peer = adopt_peer();
  peer.send("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_NE(responses[0].header("connection"), nullptr);
  EXPECT_EQ(*responses[0].header("connection"), "close");
  EXPECT_TRUE(peer.closed());
}

// --- accept path: shedding and EMFILE backoff -------------------------------

TEST_F(ReactorTest, ConnectionCapShedsWith503RetryAfter) {
  ReactorOptions options = quick_options();
  options.max_connections = 1;
  options.retry_after_seconds = 7;
  make(options, echo_handler);
  const std::uint16_t port = make_listener();

  Peer first(connect_tcp("127.0.0.1", port));
  cycle();  // accept the first
  Peer second(connect_tcp("127.0.0.1", port));
  cycle({&second});  // shed the second

  const auto responses = second.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 503);
  ASSERT_NE(responses[0].header("retry-after"), nullptr);
  EXPECT_EQ(*responses[0].header("retry-after"), "7");
  EXPECT_TRUE(second.closed());

  // The surviving connection still serves.
  first.send("GET / HTTP/1.1\r\n\r\n");
  cycle({&first});
  EXPECT_EQ(first.take_responses().size(), 1u);
  EXPECT_EQ(count("serve.accepted"), 1u);
  EXPECT_EQ(count("serve.rejected_busy"), 1u);
}

TEST_F(ReactorTest, EmfileBackoffPausesAcceptThenRecovers) {
  make(quick_options(), echo_handler);
  const std::uint16_t port = make_listener();

  // One simulated EMFILE, injected at the accept site — no need to
  // actually exhaust the fd table.
  failpoint::arm("http.accept=errno(24):times1");
  Peer peer(connect_tcp("127.0.0.1", port));
  cycle();
  EXPECT_EQ(count("serve.accept_backoffs"), 1u);
  EXPECT_EQ(count("serve.accepted"), 0u)
      << "EMFILE must pause accepts, not half-accept";

  // Still inside the backoff window: nothing accepted.
  advance_ms(99);
  cycle();
  EXPECT_EQ(count("serve.accepted"), 0u);

  // Past the window: the connection that waited in the backlog is served.
  advance_ms(2);
  cycle();
  EXPECT_EQ(count("serve.accepted"), 1u);
  peer.send("GET / HTTP/1.1\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
}

// --- queue-depth SLO ---------------------------------------------------------

TEST_F(ReactorTest, QueueDepthSloShedsCompleteRequests) {
  ReactorOptions options = quick_options();
  options.max_pending_requests = 0;  // every execution is over the SLO
  make(options, echo_handler);
  Peer peer = adopt_peer();
  peer.send("GET / HTTP/1.1\r\n\r\n");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 503);
  ASSERT_NE(responses[0].header("retry-after"), nullptr);
  EXPECT_TRUE(peer.closed());
  EXPECT_EQ(count("serve.shed_queue"), 1u);
}

// --- batching ---------------------------------------------------------------

TEST_F(ReactorTest, SameCycleIdenticalRequestsShareOneExecution) {
  int executions = 0;
  ReactorOptions options = quick_options();
  make(options, [&executions](const HttpRequest& request) {
    ++executions;
    return echo_handler(request);
  });
  Peer a = adopt_peer();
  Peer b = adopt_peer();
  Peer c = adopt_peer();
  const std::string wire =
      "POST /v1/workload HTTP/1.1\r\nContent-Length: 14\r\n\r\n"
      "{\"ranks\": [4]}";
  a.send(wire);
  b.send(wire);
  c.send(wire);
  cycle({&a, &b, &c});

  EXPECT_EQ(executions, 1) << "identical same-cycle requests must coalesce";
  std::vector<std::string> bodies;
  for (Peer* peer : {&a, &b, &c}) {
    const auto responses = peer->take_responses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, 200);
    bodies.push_back(responses[0].body);
    EXPECT_FALSE(peer->closed());
  }
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_EQ(bodies[1], bodies[2]);
  EXPECT_EQ(count("serve.batch.leaders"), 1u);
  EXPECT_EQ(count("serve.batch.members"), 2u);
  EXPECT_EQ(red_requests(), 3u);
}

TEST_F(ReactorTest, BatchWindowHoldsTheLeaderForLateTwins) {
  // The window is the execution itself: a twin that arrives while the
  // leader runs on a worker joins it instead of running again.
  make(quick_options(), gated_echo(), pool());
  Peer a = adopt_peer();
  Peer b = adopt_peer();
  const std::string wire =
      "POST /v1/workload HTTP/1.1\r\nContent-Length: 14\r\n\r\n"
      "{\"ranks\": [4]}";
  a.send(wire);
  ASSERT_TRUE(spin_until([&] { return gate_.blocked.load() == 1; }));

  b.send(wire);
  cycle({&a, &b});
  EXPECT_TRUE(a.take_responses().empty());
  EXPECT_TRUE(b.take_responses().empty());
  EXPECT_EQ(count("serve.batch.members"), 1u);

  gate_.open();
  std::vector<HttpResponse> got_a, got_b;
  ASSERT_TRUE(spin_until([&] {
    a.pump();
    b.pump();
    for (HttpResponse& r : a.take_responses()) got_a.push_back(r);
    for (HttpResponse& r : b.take_responses()) got_b.push_back(r);
    return got_a.size() + got_b.size() == 2;
  }));
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[0].body, got_b[0].body);
  EXPECT_EQ(gate_.blocked.load(), 1) << "the twin ran a second execution";
  EXPECT_EQ(count("serve.batch.leaders"), 1u);
  EXPECT_EQ(count("serve.batch.members"), 1u);
}

TEST_F(ReactorTest, MemberPastItsOwnDeadlineGets504WhileTheLeaderRuns) {
  telemetry::configure(telemetry::SessionOptions{});
  auto& expired =
      telemetry::registry().counter("serve.deadline.stage.cache.wait");
  const std::uint64_t expired_before = expired.value();
  std::vector<RequestTrace> observed;
  ReactorOptions options = quick_options();
  options.observer = [&observed](const RequestTrace& trace) {
    observed.push_back(trace);
  };
  make(options, gated_echo(), pool());
  Peer leader = adopt_peer();
  Peer member = adopt_peer();
  const std::string wire =
      "POST /v1/predict HTTP/1.1\r\nX-Picp-Deadline-Ms: 100\r\n"
      "Content-Length: 2\r\n\r\nhi";
  leader.send(wire);
  ASSERT_TRUE(spin_until([&] { return gate_.blocked.load() == 1; }));
  // The manual clock only moves while the worker is parked on the gate.
  advance_ms(30);
  member.send(wire);
  cycle({&member});  // joins; its own budget ends 130 ms in

  advance_ms(99);  // 129 ms: still inside the member's budget
  cycle({&member});
  EXPECT_TRUE(member.take_responses().empty());

  advance_ms(2);  // 131 ms: past it, with the leader still parked
  cycle({&member});
  const auto timed_out = member.take_responses();
  ASSERT_EQ(timed_out.size(), 1u);
  EXPECT_EQ(timed_out[0].status, 504);
  ASSERT_NE(timed_out[0].header("x-picp-deadline-stage"), nullptr);
  EXPECT_EQ(*timed_out[0].header("x-picp-deadline-stage"), "cache.wait");
  EXPECT_FALSE(member.closed()) << "a 504 keeps the connection";
  EXPECT_EQ(expired.value() - expired_before, 1u);
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_STREQ(observed[0].role, "member");
  EXPECT_EQ(observed[0].batch_size, 2u);
  EXPECT_EQ(observed[0].deadline_stage, "cache.wait");
  EXPECT_DOUBLE_EQ(observed[0].batch_wait_us, 101000.0);
  EXPECT_DOUBLE_EQ(observed[0].total_us, 101000.0);

  // The leader is untouched: it answers when its execution finishes.
  gate_.open();
  std::vector<HttpResponse> answered;
  ASSERT_TRUE(spin_until([&] {
    leader.pump();
    for (HttpResponse& r : leader.take_responses()) answered.push_back(r);
    return !answered.empty();
  }));
  EXPECT_EQ(answered[0].status, 200);
  member.pump();
  EXPECT_TRUE(member.take_responses().empty()) << "member answered twice";
}

TEST_F(ReactorTest, DifferentDeadlineHeadersNeverCoalesce) {
  int executions = 0;
  make(quick_options(), [&executions](const HttpRequest& request) {
    ++executions;
    return echo_handler(request);
  });
  Peer a = adopt_peer();
  Peer b = adopt_peer();
  a.send(
      "POST /v1/workload HTTP/1.1\r\nX-Picp-Deadline-Ms: 100\r\n"
      "Content-Length: 14\r\n\r\n{\"ranks\": [4]}");
  b.send(
      "POST /v1/workload HTTP/1.1\r\n"
      "Content-Length: 14\r\n\r\n{\"ranks\": [4]}");
  cycle({&a, &b});
  EXPECT_EQ(executions, 2)
      << "a tighter deadline must not ride a looser execution";
  EXPECT_EQ(count("serve.batch.members"), 0u);
}

// --- worker-pool dispatch ----------------------------------------------------

TEST_F(ReactorTest, PoolDispatchDeliversThroughTheCompletionQueue) {
  ThreadPool pool(2);
  make(quick_options(), echo_handler, &pool);
  Peer peer = adopt_peer();
  peer.send("POST /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
  std::vector<HttpResponse> responses;
  // The handler runs on a worker; its completion wakes the loop through
  // the wake pipe. Bounded real-time waits, no manual-clock advance.
  for (int i = 0; i < 200 && responses.empty(); ++i) {
    reactor_->run_once(25);
    peer.pump();
    responses = peer.take_responses();
  }
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "POST /echo|hi");
  pool.wait_idle();  // no task may outlive the reactor below
}

// --- property test: batch coalescing against the real service ---------------

/// Miniature trace shared by every service-backed test in this file.
/// Leaked on purpose: process-lifetime.
const std::string& reactor_trace_path() {
  static const std::string* path = [] {
    SimConfig cfg;
    cfg.nelx = 8;
    cfg.nely = 8;
    cfg.nelz = 16;
    cfg.bed.num_particles = 1500;
    cfg.num_iterations = 100;
    cfg.sample_every = 50;
    cfg.num_ranks = 8;
    cfg.filter_size = 0.08;
    const auto* p = new std::string(testing::TempDir() + "/picp_reactor_" +
                                    std::to_string(::getpid()) + ".trace");
    SimDriver driver(cfg);
    driver.run(*p);
    return p;
  }();
  return *path;
}

/// Counter value out of a /metricsz JSON body; 0 when absent.
std::uint64_t metric_value(const std::string& body, const std::string& name) {
  const std::size_t at = body.find("\"" + name + "\":");
  if (at == std::string::npos) return 0;
  std::size_t cursor = body.find(':', at) + 1;
  while (cursor < body.size() && body[cursor] == ' ') ++cursor;
  std::uint64_t value = 0;
  while (cursor < body.size() && body[cursor] >= '0' && body[cursor] <= '9')
    value = value * 10 + static_cast<std::uint64_t>(body[cursor++] - '0');
  return value;
}

/// A /v1/workload request carrying `body` verbatim.
std::string workload_body_wire(const std::string& body) {
  return "POST /v1/workload HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string workload_wire(const std::string& ranks_json) {
  return workload_body_wire("{\"ranks\": [" + ranks_json + "]}");
}

class ReactorServiceTest : public ReactorTest {
 protected:
  void SetUp() override {
    telemetry::configure(telemetry::SessionOptions{});
    config_.trace_path = reactor_trace_path();
    config_.nelx = 8;
    config_.nely = 8;
    config_.nelz = 16;
    service_ = std::make_unique<PredictionService>(config_);
    serve_with(nullptr);
  }

  /// (Re)build the reactor in front of the service, coalescing on the
  /// service's own key as the daemon does; `pool` nullptr = inline.
  void serve_with(ThreadPool* pool) {
    ReactorOptions options = quick_options();
    options.coalesce_key = [this](const HttpRequest& request) {
      return service_->coalesce_key(request);
    };
    make(options, [this](const HttpRequest& request) {
      return service_->handle(request);
    }, pool);
  }

  /// One complete request/response exchange on a fresh connection.
  HttpResponse roundtrip(const std::string& wire_bytes) {
    Peer peer = adopt_peer();
    peer.send(wire_bytes);
    std::vector<HttpResponse> responses;
    spin_until([&] {
      peer.pump();
      responses = peer.take_responses();
      return !responses.empty();
    });
    EXPECT_EQ(responses.size(), 1u);
    return responses.empty() ? HttpResponse{} : responses[0];
  }

  /// Send one request per wire string, each on its own connection, all
  /// before the loop runs; the responses in peer order.
  std::vector<HttpResponse> storm(const std::vector<std::string>& wires) {
    std::vector<Peer> peers;
    peers.reserve(wires.size());
    for (const std::string& wire_bytes : wires) {
      peers.push_back(adopt_peer());
      peers.back().send(wire_bytes);
    }
    std::vector<HttpResponse> responses(wires.size());
    std::size_t answered = 0;
    spin_until([&] {
      for (std::size_t i = 0; i < peers.size(); ++i) {
        peers[i].pump();
        for (HttpResponse& r : peers[i].take_responses()) {
          responses[i] = std::move(r);
          ++answered;
        }
      }
      return answered >= wires.size();
    });
    EXPECT_EQ(answered, wires.size());
    return responses;
  }

  /// N identical queries in flight together cost ONE generation, proven
  /// through /metricsz served by the same reactor, and every member gets
  /// the leader's bytes; a later solo request replays them exactly.
  void identical_storm_costs_exactly_one_generation() {
    const std::uint64_t before = generations();
    const std::uint64_t leaders_before = count("serve.batch.leaders");
    const std::uint64_t members_before = count("serve.batch.members");
    constexpr std::size_t kPeers = 6;
    const std::string wire = workload_wire("6");
    const std::vector<HttpResponse> responses =
        storm(std::vector<std::string>(kPeers, wire));
    for (std::size_t i = 0; i < kPeers; ++i) {
      ASSERT_EQ(responses[i].status, 200) << responses[i].body;
      EXPECT_EQ(responses[i].body, responses[0].body)
          << "member " << i << " got a different body";
    }
    EXPECT_EQ(generations() - before, 1u);
    EXPECT_EQ(count("serve.batch.leaders") - leaders_before, 1u);
    EXPECT_EQ(count("serve.batch.members") - members_before, kPeers - 1);

    const HttpResponse solo = roundtrip(wire);
    ASSERT_EQ(solo.status, 200);
    EXPECT_EQ(solo.body, responses[0].body)
        << "solo replay diverged from the coalesced response";
    EXPECT_EQ(generations() - before, 1u) << "solo replay regenerated";
  }

  std::uint64_t generations() {
    const HttpResponse metrics = roundtrip("GET /metricsz HTTP/1.1\r\n\r\n");
    EXPECT_EQ(metrics.status, 200);
    return metric_value(metrics.body, "serve.workload.generations");
  }

  ServiceConfig config_;
  std::unique_ptr<PredictionService> service_;
};

TEST_F(ReactorServiceTest, IdenticalStormCostsExactlyOneGeneration) {
  identical_storm_costs_exactly_one_generation();  // one inline cycle
}

TEST_F(ReactorServiceTest, IdenticalStormOnAPoolCostsExactlyOneGeneration) {
  serve_with(pool());
  identical_storm_costs_exactly_one_generation();
}

TEST_F(ReactorServiceTest, ReencodedEquivalentsShareOneExecution) {
  // Three spellings of one config: the service's key sees through the
  // bytes (scalar ranks, reordered keys, defaults written out).
  const std::uint64_t before = generations();
  const std::vector<HttpResponse> responses = storm(
      {workload_body_wire("{\"ranks\": [6]}"),
       workload_body_wire("{\"ranks\": 6}"),
       workload_body_wire(
           "{\"mapper\": \"bin\", \"filter\": 0.024, \"ranks\": [6]}")});
  for (const HttpResponse& response : responses) {
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.body, responses[0].body);
  }
  EXPECT_EQ(generations() - before, 1u);
  EXPECT_EQ(count("serve.batch.members"), 2u);
  // The leader paid for the generation; its members paid for nothing.
  ASSERT_NE(responses[0].header("x-picp-cache"), nullptr);
  EXPECT_EQ(*responses[0].header("x-picp-cache"), "miss");
  for (std::size_t i = 1; i < responses.size(); ++i) {
    ASSERT_NE(responses[i].header("x-picp-cache"), nullptr);
    EXPECT_EQ(*responses[i].header("x-picp-cache"), "hit");
  }
}

TEST_F(ReactorServiceTest, FailingLeaderFailsEveryMemberThenRecomputes) {
  failpoint::arm("serve.generate=error:times1");
  const std::vector<HttpResponse> failed =
      storm(std::vector<std::string>(3, workload_wire("5")));
  for (const HttpResponse& response : failed) {
    EXPECT_EQ(response.status, 500);
    EXPECT_EQ(response.body, failed[0].body);
  }
  EXPECT_EQ(count("serve.batch.members"), 2u);

  // Nothing poisoned: the next request runs a fresh execution.
  const HttpResponse retry = roundtrip(workload_wire("5"));
  EXPECT_EQ(retry.status, 200) << retry.body;
  ASSERT_NE(retry.header("x-picp-cache"), nullptr);
  EXPECT_EQ(*retry.header("x-picp-cache"), "miss");
}

TEST_F(ReactorServiceTest, MixedStormNeverCrossContaminates) {
  constexpr std::size_t kPeers = 8;
  std::vector<Peer> peers;
  peers.reserve(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) peers.push_back(adopt_peer());
  // Alternate two configs through one cycle: 4-rank and 8-rank workloads.
  for (std::size_t i = 0; i < kPeers; ++i)
    peers[i].send(workload_wire(i % 2 == 0 ? "4" : "8"));
  reactor_->run_once(0);

  std::vector<std::string> bodies(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) {
    peers[i].pump();
    const auto responses = peers[i].take_responses();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_EQ(responses[0].status, 200) << responses[0].body;
    bodies[i] = responses[0].body;
  }

  // Within a config: byte-identical. Across configs: distinct.
  for (std::size_t i = 2; i < kPeers; i += 2) EXPECT_EQ(bodies[0], bodies[i]);
  for (std::size_t i = 3; i < kPeers; i += 2) EXPECT_EQ(bodies[1], bodies[i]);
  EXPECT_NE(bodies[0], bodies[1]) << "4-rank and 8-rank responses collided";

  // And each matches its config's solo ground truth.
  EXPECT_EQ(roundtrip(workload_wire("4")).body, bodies[0]);
  EXPECT_EQ(roundtrip(workload_wire("8")).body, bodies[1]);
}

TEST_F(ReactorServiceTest, ReadinessProbeGatesHealthzReadyOnly) {
  // Liveness stays 200 regardless; ?ready=1 consults the probe.
  EXPECT_EQ(roundtrip("GET /healthz HTTP/1.1\r\n\r\n").status, 200);
  EXPECT_EQ(roundtrip("GET /healthz?ready=1 HTTP/1.1\r\n\r\n").status, 200);

  service_->set_readiness_probe([](std::string* reason) {
    if (reason != nullptr) *reason = "draining";
    return false;
  });
  EXPECT_EQ(roundtrip("GET /healthz HTTP/1.1\r\n\r\n").status, 200);
  const HttpResponse not_ready =
      roundtrip("GET /healthz?ready=1 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(not_ready.status, 503);
  ASSERT_NE(not_ready.header("retry-after"), nullptr);
  EXPECT_NE(not_ready.body.find("draining"), std::string::npos);
}

TEST_F(ReactorServiceTest, MetricszSpeaksPrometheusOnRequest) {
  // Default stays JSON for the existing tooling.
  const HttpResponse json = roundtrip("GET /metricsz HTTP/1.1\r\n\r\n");
  ASSERT_EQ(json.status, 200);
  ASSERT_NE(json.header("content-type"), nullptr);
  EXPECT_NE(json.header("content-type")->find("application/json"),
            std::string::npos);

  const HttpResponse prom =
      roundtrip("GET /metricsz?format=prometheus HTTP/1.1\r\n\r\n");
  ASSERT_EQ(prom.status, 200);
  ASSERT_NE(prom.header("content-type"), nullptr);
  EXPECT_EQ(*prom.header("content-type"), "text/plain; version=0.0.4");
  EXPECT_NE(prom.body.find("# HELP picp_"), std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE picp_serve_accepted counter"),
            std::string::npos);
  EXPECT_NE(
      prom.body.find("# TYPE picp_serve_red_total_us_metricsz_2xx histogram"),
      std::string::npos);
  EXPECT_EQ(prom.body.find("{\"metrics\""), std::string::npos)
      << "prometheus body leaked JSON";
}

// --- one stage hook: the real pipeline behind an observed reactor -----------

/// The pipeline layers a cold /v1/predict runs, in BENCHMARK.json's
/// per_layer names.
const std::vector<std::string> kLayers = {
    "trace.read",     "mesh.partition", "mapping.map", "workload.account",
    "workload.ghost", "model.eval",     "des.run"};

std::set<std::string> stage_names(const RequestTrace& trace) {
  std::set<std::string> names;
  for (const StageTiming& stage : trace.stages()) names.insert(stage.name);
  return names;
}

std::string predict_wire(const std::string& ranks_json) {
  const std::string body = "{\"ranks\": [" + ranks_json + "]}";
  return "POST /v1/predict HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// The real service with models loaded, so /v1/predict runs every layer,
/// behind a reactor that samples every request (trace_sample_n = 1) and
/// keeps each finished request's trace, as the access log would see it.
class ReactorStageTest : public ReactorServiceTest {
 protected:
  void SetUp() override {
    ReactorServiceTest::SetUp();  // an in-memory session: no span is kept
    models_path_ = testing::TempDir() + "/picp_reactor_models_" +
                   std::to_string(::getpid()) + ".txt";
    std::ofstream(models_path_)
        << "project | np,ngp,filter | linear 0 1e-8 2e-8 3e-8\n";
    config_.models_path = models_path_;
    restart();
  }
  void TearDown() override {
    std::remove(models_path_.c_str());
    ReactorServiceTest::TearDown();
  }

  /// A fresh service (empty caches) behind a fresh inline reactor, on the
  /// manual clock or, with `real_clock`, on steady_clock.
  void restart(bool real_clock = false) {
    service_ = std::make_unique<PredictionService>(config_);
    ReactorOptions options = quick_options();
    options.coalesce_key = [this](const HttpRequest& request) {
      return service_->coalesce_key(request);
    };
    options.trace_sample_n = 1;
    options.observer = [this](const RequestTrace& trace) {
      observed_.push_back(trace);
    };
    EpollReactor::Handler handler = [this](const HttpRequest& request) {
      return service_->handle(request);
    };
    if (real_clock)
      reactor_ = std::make_unique<EpollReactor>(options, std::move(handler),
                                                nullptr);
    else
      make(options, std::move(handler));
  }

  /// Cold, cached and coalesced requests: two cold configs, each repeated
  /// from the cache, then three identical new ones in one cycle.
  void mixed_traffic() {
    for (const char* ranks : {"3", "5"})
      for (int i = 0; i < 2; ++i)
        EXPECT_EQ(roundtrip(predict_wire(ranks)).status, 200);
    for (const HttpResponse& response :
         storm(std::vector<std::string>(3, predict_wire("7"))))
      EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(count("serve.batch.members"), 2u);
  }

  /// The access-log line of the latest finished request.
  Json last_line() const {
    return Json::parse(access_log_line(observed_.back()));
  }

  std::string models_path_;
  std::vector<RequestTrace> observed_;
};

TEST_F(ReactorStageTest, SpansAreKeptOnlyForASessionThatWritesThem) {
  mixed_traffic();
  ASSERT_EQ(observed_.size(), 7u);
  EXPECT_EQ(telemetry::tracer().span_count(), 0u)
      << "a session without a directory kept spans nothing will write";
  std::map<std::string, std::uint64_t> phases;
  for (const telemetry::PhaseTotal& total : telemetry::phase_totals())
    phases[total.name] = total.count;
  EXPECT_EQ(phases["generate"], 3u);
  for (const std::string& layer : kLayers)
    EXPECT_GT(phases[layer], 0u) << layer;

  // The same traffic under a session that writes spans keeps exactly the
  // sampled requests' spans: request, batch-wait, queue and each stage.
  telemetry::SessionOptions session;
  session.directory = testing::TempDir() + "/picp_reactor_stage_spans_" +
                      std::to_string(::getpid());
  telemetry::configure(session);
  restart();
  observed_.clear();
  mixed_traffic();
  ASSERT_EQ(observed_.size(), 7u);
  std::size_t sampled = 0;
  for (const RequestTrace& trace : observed_)
    sampled += 3 + trace.stages().size();
  EXPECT_EQ(telemetry::tracer().span_count(), sampled);
  telemetry::configure(telemetry::SessionOptions{});
  std::filesystem::remove_all(session.directory);
}

TEST_F(ReactorStageTest, CountsRecordWithoutATelemetrySession) {
  // The session gates only time: with none open, a cold miss and its
  // repeat still count in every layer, and no phase total moves.
  telemetry::SessionOptions none;
  none.enabled = false;
  telemetry::configure(none);
  ASSERT_EQ(roundtrip(predict_wire("6")).status, 200);
  ASSERT_EQ(roundtrip(predict_wire("6")).status, 200);
  EXPECT_EQ(red_requests(), 2u);
  EXPECT_EQ(count("serve.workload.generations"), 1u);
  EXPECT_EQ(count("serve.cache.workload.misses"), 1u);
  EXPECT_GT(count("des.events"), 0u);
  EXPECT_GT(count("trace.read_samples"), 0u);
  for (const telemetry::PhaseTotal& total : telemetry::phase_totals())
    EXPECT_EQ(total.count, 0u) << total.name;
  telemetry::configure(telemetry::SessionOptions{});
}

TEST_F(ReactorStageTest, ColdMissTraceSplitsByLayer) {
  restart(/*real_clock=*/true);
  // Three distinct cold misses. Each splits into every phase and layer,
  // and the stages must account for the total in at least one: an untimed
  // region in the code fails all three, a scheduler preemption outside
  // any stage on a loaded host only one.
  double best_gap = 1.0;
  for (const char* ranks : {"6", "7", "9"}) {
    ASSERT_EQ(roundtrip(predict_wire(ranks)).status, 200);
    const RequestTrace& cold = observed_.back();
    EXPECT_STREQ(cold.cache_tier, "miss");
    const std::set<std::string> names = stage_names(cold);
    for (const char* phase : {"cache", "generate", "simulate", "render"})
      EXPECT_EQ(names.count(phase), 1u) << phase;
    for (const std::string& layer : kLayers)
      EXPECT_EQ(names.count(layer), 1u) << layer;
    double stage_sum_us = 0.0;
    for (const StageTiming& stage : cold.stages())
      stage_sum_us += stage.dur_us;
    const double accounted =
        cold.batch_wait_us + cold.queue_wait_us + stage_sum_us;
    best_gap = std::min(best_gap,
                        std::abs(cold.total_us - accounted) / cold.total_us);
  }
  EXPECT_LT(best_gap, 0.1)
      << "stage timings do not account for the request total";

  // A repeat comes from the cache: no generation, no layer.
  ASSERT_EQ(roundtrip(predict_wire("6")).status, 200);
  ASSERT_EQ(observed_.size(), 4u);
  const std::set<std::string> repeat = stage_names(observed_.back());
  EXPECT_EQ(repeat.count("cache"), 1u);
  EXPECT_EQ(repeat.count("generate"), 0u);
  for (const std::string& layer : kLayers)
    EXPECT_EQ(repeat.count(layer), 0u) << layer;
}

TEST_F(ReactorStageTest, AccessLogAnnotationsComeFromTheReplyHeaders) {
  // Capacity-1 tiers with stale serving on: a second config evicts the
  // first, whose last good body stays behind as the stale value.
  config_.allow_stale = true;
  config_.workload_cache_capacity = 1;
  config_.response_cache_capacity = 1;
  restart();

  ASSERT_EQ(roundtrip(workload_wire("4")).status, 200);
  EXPECT_EQ(last_line().at("cache").as_string(), "miss");
  ASSERT_EQ(roundtrip(workload_wire("4")).status, 200);
  EXPECT_EQ(last_line().at("cache").as_string(), "hit");

  // A joined member paid for nothing: it logs a hit beside the leader's
  // miss.
  observed_.clear();
  storm(std::vector<std::string>(2, workload_wire("2")));
  ASSERT_EQ(observed_.size(), 2u);
  EXPECT_STREQ(observed_[0].role, "leader");
  EXPECT_STREQ(observed_[0].cache_tier, "miss");
  EXPECT_STREQ(observed_[1].role, "member");
  EXPECT_STREQ(observed_[1].cache_tier, "hit");

  // Regeneration fails and the stale tier answers: the log says stale.
  failpoint::arm("serve.generate=error");
  const HttpResponse degraded = roundtrip(workload_wire("4"));
  failpoint::disarm_all();
  ASSERT_EQ(degraded.status, 200) << degraded.body;
  ASSERT_NE(degraded.header("x-picp-degraded"), nullptr);
  EXPECT_EQ(last_line().at("cache").as_string(), "stale");

  // The budget runs out before the first stage boundary: the 504 names
  // that stage.
  failpoint::arm("serve.generate=delay(80)");
  const std::string body = "{\"ranks\": [9]}";
  const HttpResponse late = roundtrip(
      "POST /v1/workload HTTP/1.1\r\nX-Picp-Deadline-Ms: 20\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body);
  failpoint::disarm_all();
  ASSERT_EQ(late.status, 504) << late.body;
  EXPECT_EQ(last_line().at("deadline_stage").as_string(), "generate.partition");
  EXPECT_EQ(last_line().at("cache").as_string(), "");
}

// --- request observability ---------------------------------------------------

TEST_F(ReactorTest, EveryResponseCarriesATraceId) {
  make(quick_options(), echo_handler);

  // Generated id on a plain request.
  Peer peer = adopt_peer();
  peer.send("GET /healthz HTTP/1.1\r\n\r\n");
  cycle({&peer});
  auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string* generated = responses[0].header("x-picp-trace-id");
  ASSERT_NE(generated, nullptr);
  EXPECT_EQ(generated->substr(0, 2), "p-");

  // A well-formed inbound id is propagated verbatim.
  peer.send("GET /healthz HTTP/1.1\r\nX-Picp-Trace-Id: client-42.a\r\n\r\n");
  cycle({&peer});
  responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string* echoed = responses[0].header("x-picp-trace-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "client-42.a");

  // A hostile inbound id is replaced, never echoed.
  peer.send("GET /healthz HTTP/1.1\r\nX-Picp-Trace-Id: has spaces!\r\n\r\n");
  cycle({&peer});
  responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string* replaced = responses[0].header("x-picp-trace-id");
  ASSERT_NE(replaced, nullptr);
  EXPECT_EQ(replaced->substr(0, 2), "p-");

  // Even a 400 for unparseable framing is traceable.
  Peer bad = adopt_peer();
  bad.send("NOT A REQUEST\r\n\r\n");
  cycle({&bad});
  responses = bad.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 400);
  ASSERT_NE(responses[0].header("x-picp-trace-id"), nullptr);
}

TEST_F(ReactorTest, ObserverSeesWaitsStagesAndStatusPerRequest) {
  std::vector<RequestTrace> observed;
  ReactorOptions options = quick_options();
  options.observer = [&observed](const RequestTrace& trace) {
    observed.push_back(trace);
  };
  // Handler walks the annotated pipeline on the manual clock: 5 ms of
  // "cache" around a nested 20 ms "generate", then 10 ms "simulate" and
  // 3 ms "render" — exclusive stage times must sum to the handler time.
  make(options, [this](const HttpRequest& request) {
    {
      const telemetry::ScopedSpan cache("cache");
      advance_ms(5);
      const telemetry::ScopedSpan generate("generate");
      advance_ms(20);
    }
    {
      const telemetry::ScopedSpan simulate("simulate");
      advance_ms(10);
    }
    const telemetry::ScopedSpan render("render");
    advance_ms(3);
    return echo_handler(request);
  });

  Peer peer = adopt_peer();
  peer.send("POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
  cycle({&peer});
  const auto responses = peer.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);

  ASSERT_EQ(observed.size(), 1u);
  const RequestTrace& trace = observed[0];
  EXPECT_EQ(trace.method, "POST");
  EXPECT_EQ(trace.path, "/v1/predict");
  EXPECT_EQ(trace.status, 200);
  EXPECT_STREQ(trace.role, "solo");
  ASSERT_NE(responses[0].header("x-picp-trace-id"), nullptr);
  EXPECT_EQ(*responses[0].header("x-picp-trace-id"), trace.id);

  // Same-cycle inline dispatch: no batch or queue wait on the manual
  // clock; the handler accounts for the whole request.
  EXPECT_DOUBLE_EQ(trace.batch_wait_us, 0.0);
  EXPECT_DOUBLE_EQ(trace.queue_wait_us, 0.0);
  EXPECT_DOUBLE_EQ(trace.handler_us, 38000.0);
  EXPECT_DOUBLE_EQ(trace.total_us, 38000.0);

  double stage_sum_us = 0.0;
  for (const StageTiming& stage : trace.stages()) stage_sum_us += stage.dur_us;
  const double accounted =
      trace.batch_wait_us + trace.queue_wait_us + stage_sum_us;
  EXPECT_NEAR(accounted, trace.total_us, 0.1 * trace.total_us)
      << "stage timings do not account for the request total";

  // The access-log line renders the same numbers.
  const Json line = Json::parse(access_log_line(trace));
  EXPECT_EQ(line.find("trace_id")->as_string(), trace.id);
  EXPECT_DOUBLE_EQ(line.find("total_us")->as_double(), 38000.0);
  EXPECT_DOUBLE_EQ(line.find("stages")->find("cache")->as_double(), 5000.0);
  EXPECT_DOUBLE_EQ(line.find("stages")->find("generate")->as_double(),
                   20000.0);
}

TEST_F(ReactorTest, SampledSlowRequestEmitsSpansThatSumToTheTotal) {
  // Spans are emitted only for a session that will write them.
  telemetry::SessionOptions session;
  session.directory = testing::TempDir() + "/picp_reactor_spans_" +
                      std::to_string(::getpid());
  telemetry::configure(session);
  ReactorOptions options = quick_options();
  options.trace_sample_n = 1;  // sample every finished request
  make(options, [this](const HttpRequest& request) {
    {
      const telemetry::ScopedSpan generate("generate");
      advance_ms(30);
    }
    const telemetry::ScopedSpan simulate("simulate");
    advance_ms(12);
    return echo_handler(request);
  });

  Peer peer = adopt_peer();
  peer.send("POST /v1/predict HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  cycle({&peer});
  ASSERT_EQ(peer.take_responses().size(), 1u);

  double request_us = 0.0, stage_sum_us = 0.0;
  for (const auto& tagged : telemetry::tracer().collect()) {
    if (std::string(tagged.span.category) != "request") continue;
    const std::string name = tagged.span.name;
    if (name == "request")
      request_us = tagged.span.dur_us;
    else if (name != "queue" && name != "batch-wait")
      stage_sum_us += tagged.span.dur_us;
  }
  EXPECT_DOUBLE_EQ(request_us, 42000.0);
  EXPECT_NEAR(stage_sum_us, request_us, 0.1 * request_us)
      << "emitted stage spans do not sum to the request span";

  // RED histograms observed the same request.
  const auto snapshot = telemetry::registry().snapshot();
  bool red_seen = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "serve.red.total_us.predict.2xx") {
      red_seen = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_DOUBLE_EQ(h.sum, 42000.0);
    }
  }
  EXPECT_TRUE(red_seen) << "RED latency histogram was never registered";
  telemetry::configure(telemetry::SessionOptions{});
  std::filesystem::remove_all(session.directory);
}

TEST_F(ReactorTest, RedCountsEveryResponseOnceInItsRouteAndClass) {
  // The RED histograms are the daemon's only request counts: every
  // response a peer reads, whoever built it, must land in exactly one
  // serve.red.total_us.<route>.<class>.
  telemetry::configure(telemetry::SessionOptions{});
  ReactorOptions options = quick_options();
  options.max_pending_requests = 1;  // a parked execution fills the queue
  make(options, [echo = gated_echo()](const HttpRequest& request) {
    if (request.target == "/v1/models") throw Error("model store offline");
    return echo(request);
  }, pool());

  std::map<std::string, std::uint64_t> expected;  // <route>.<class> -> count
  std::vector<HttpResponse> read;
  // Step the loop until `peer` reads its next response; expect exactly one.
  const auto next_response = [&](Peer& peer) {
    std::vector<HttpResponse> got;
    EXPECT_TRUE(spin_until([&] {
      peer.pump();
      got = peer.take_responses();
      return !got.empty();
    }));
    EXPECT_EQ(got.size(), 1u);
    read.insert(read.end(), got.begin(), got.end());
    return got.empty() ? HttpResponse{} : got[0];
  };

  Peer solo = adopt_peer();
  solo.send("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(next_response(solo).status, 200);
  ++expected["healthz.2xx"];

  Peer thrower = adopt_peer();
  thrower.send("GET /v1/models HTTP/1.1\r\n\r\n");
  EXPECT_EQ(next_response(thrower).status, 500);
  ++expected["models.5xx"];

  Peer garbled = adopt_peer();
  garbled.send("NOT A REQUEST\r\n\r\n");
  EXPECT_EQ(next_response(garbled).status, 400);
  ++expected["other.4xx"];

  // A leader parked on the gate, one member that joins at once (its budget
  // ends 100 ms in) and two that join 50 ms later (150 ms).
  const std::string keyed =
      "POST /v1/predict HTTP/1.1\r\nX-Picp-Deadline-Ms: 100\r\n"
      "Content-Length: 2\r\n\r\nhi";
  Peer leader = adopt_peer();
  leader.send(keyed);
  ASSERT_TRUE(spin_until([&] { return gate_.blocked.load() == 1; }));
  Peer early = adopt_peer();
  early.send(keyed);
  cycle();
  advance_ms(50);
  Peer late_a = adopt_peer();
  Peer late_b = adopt_peer();
  late_a.send(keyed);
  late_b.send(keyed);
  cycle();

  // The parked leader holds the only queue slot: new work is shed.
  Peer shed = adopt_peer();
  shed.send("POST /v1/workload HTTP/1.1\r\nContent-Length: 2\r\n\r\nno");
  EXPECT_EQ(next_response(shed).status, 503);
  ++expected["workload.5xx"];

  advance_ms(51);  // 101 ms: past the early member's budget only
  EXPECT_EQ(next_response(early).status, 504);
  ++expected["predict.5xx"];

  gate_.open();
  for (Peer* peer : {&leader, &late_a, &late_b}) {
    EXPECT_EQ(next_response(*peer).status, 200);
    ++expected["predict.2xx"];
  }
  EXPECT_EQ(gate_.blocked.load(), 1) << "a member ran its own execution";

  Peer loris = adopt_peer();
  loris.send("POST /v1/workload HTTP/1.1\r\nContent-Le");
  cycle();
  advance_ms(1001);
  EXPECT_EQ(next_response(loris).status, 408);
  ++expected["other.4xx"];

  const std::string prefix = "serve.red.total_us.";
  std::map<std::string, std::uint64_t> counted;
  std::uint64_t total = 0;
  for (const auto& h : telemetry::registry().snapshot().histograms) {
    if (h.name.rfind(prefix, 0) != 0 || h.count == 0) continue;
    counted[h.name.substr(prefix.size())] = h.count;
    total += h.count;
  }
  EXPECT_EQ(total, read.size());
  EXPECT_EQ(counted, expected);

  // The reactor built every error here, as the same document the service
  // sends.
  for (const HttpResponse& response : read) {
    if (response.status < 400) continue;
    const Json error = Json::parse(response.body).at("error");
    EXPECT_EQ(error.at("status").as_int(), response.status) << response.body;
    EXPECT_TRUE(error.at("message").is_string()) << response.body;
  }
}

TEST_F(ReactorTest, MetricsScrapeNeverBlocksBehindABatchedStorm) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  std::atomic<int> blocked{0};

  ThreadPool pool(2);
  make(quick_options(), [&](const HttpRequest& request) {
    if (request.method == "POST") {
      blocked.fetch_add(1);
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return released; });
    }
    return echo_handler(request);
  }, &pool);

  // A storm of identical keyed requests coalesces into ONE pool task,
  // which parks on the gate — one worker consumed, one still free.
  constexpr int kStorm = 4;
  std::vector<Peer> storm;
  storm.reserve(kStorm);
  for (int i = 0; i < kStorm; ++i) storm.push_back(adopt_peer());
  const std::string wire =
      "POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
  for (Peer& peer : storm) peer.send(wire);
  reactor_->run_once(0);  // parse + coalesce + dispatch the batch
  for (int i = 0; i < 400 && blocked.load() == 0; ++i)
    reactor_->run_once(25);
  ASSERT_EQ(blocked.load(), 1) << "storm did not coalesce into one task";

  // The scrape-style request must complete while the storm is parked.
  Peer scrape = adopt_peer();
  scrape.send("GET /metricsz HTTP/1.1\r\n\r\n");
  std::vector<HttpResponse> scraped;
  for (int i = 0; i < 400 && scraped.empty(); ++i) {
    reactor_->run_once(25);
    scrape.pump();
    scraped = scrape.take_responses();
  }
  ASSERT_EQ(scraped.size(), 1u) << "scrape starved behind the batch";
  EXPECT_EQ(scraped[0].status, 200);
  for (Peer& peer : storm) {
    peer.pump();
    EXPECT_TRUE(peer.take_responses().empty())
        << "storm answered before the gate opened";
  }

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  std::size_t answered = 0;
  for (int i = 0; i < 400 && answered < kStorm; ++i) {
    reactor_->run_once(25);
    for (Peer& peer : storm) {
      peer.pump();
      answered += peer.take_responses().size();
    }
  }
  EXPECT_EQ(answered, static_cast<std::size_t>(kStorm));
  pool.wait_idle();

  // Snapshot consistency: every keyed request is accounted for as
  // exactly one leader or member.
  const std::uint64_t leaders = count("serve.batch.leaders");
  const std::uint64_t members = count("serve.batch.members");
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(members, static_cast<std::uint64_t>(kStorm - 1));
  EXPECT_EQ(leaders + members, static_cast<std::uint64_t>(kStorm));
}

}  // namespace
}  // namespace picp::serve
