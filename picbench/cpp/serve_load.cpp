// serve_cold: the `picpredict serve` daemon, spawned as a separate process
// from the build, under a closed loop of cold sweep clients; and the serving
// layers of the traced run, timed in process, over loopback round trips and
// in open-loop windows of cached requests.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "picbench.hpp"
#include "serve/http.hpp"
#include "serve/http_parser.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace picbench {

namespace fs = std::filesystem;

namespace {

// --- the daemon process ------------------------------------------------------

/// Handler workers of the daemon. One core is left for the reactor thread
/// and one for the load generator, so daemon and load fit the machine.
std::size_t daemon_workers() { return cores() > 2 ? cores() - 2 : 1; }

/// A `picpredict serve` child process. The config sets deployment keys
/// only (trace, models, port, threads, access log); every tuning key keeps
/// the program's default, so a change to a default is measured.
class Daemon {
 public:
  Daemon(const Options& options, const Inputs& inputs, const std::string& tag,
         bool access_log, bool sample_every_request = false)
      : ready_file_(options.work + "/" + tag + ".ready") {
    const std::string ini = options.work + "/" + tag + ".ini";
    {
      std::ofstream out(ini);
      out << "[serve]\n"
          << "trace = " << fs::absolute(inputs.trace).string() << "\n"
          << "models = " << fs::absolute(inputs.models).string() << "\n"
          << "port = 0\n"
          << "threads = " << daemon_workers() << "\n";
      if (access_log)
        out << "access_log = " << options.work << "/" << tag << ".access\n";
      // The armed variant of the observability-overhead measurement.
      if (sample_every_request) out << "trace_sample_n = 1\n";
      PICP_REQUIRE(out.good(), "cannot write " + ini);
    }
    fs::remove(ready_file_);
    const std::string log = options.work + "/" + tag + ".log";
    std::vector<std::string> args = {options.picpredict, "serve",  "--config",
                                     ini, "--ready-file", ready_file_};
    // Everything the child needs is built before fork: only
    // async-signal-safe calls may run between fork and exec.
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const auto start = Clock::now();
    pid_ = ::fork();
    PICP_REQUIRE(pid_ >= 0, std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    while (!fs::exists(ready_file_)) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw picp::Error("picpredict serve exited during start-up; see " +
                          log);
      }
      PICP_REQUIRE(seconds_since(start) < 60.0,
                   "picpredict serve not ready after 60 s; see " + log);
      ::usleep(100);
    }
    ready_s_ = seconds_since(start);
    std::ifstream in(ready_file_);
    unsigned port = 0;
    in >> port;
    PICP_REQUIRE(port > 0, "no port in " + ready_file_);
    port_ = static_cast<std::uint16_t>(port);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double ready_seconds() const { return ready_s_; }
  std::uint16_t port() const { return port_; }

  /// Peak resident set of the daemon so far (VmHWM), in MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
  }

  /// SIGTERM, then wait for the drain; SIGKILL after 20 s.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
  }

 private:
  std::string ready_file_;
  pid_t pid_ = -1;
  double ready_s_ = 0.0;
  std::uint16_t port_ = 0;
};

/// setup_s of a serving workload: spawn-to-ready, median of nine spawns.
/// Returns the last daemon, left running.
std::unique_ptr<Daemon> spawn_measured(const Options& options,
                                       const Inputs& inputs, bool access_log,
                                       double* setup_s) {
  std::vector<double> ready;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < 9; ++i) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(options, inputs, "daemon", access_log);
    ready.push_back(daemon->ready_seconds());
  }
  *setup_s = picp::percentile(ready, 50.0);
  return daemon;
}

// --- blocking client helpers -------------------------------------------------

struct Reply {
  int status = 0;
  std::string cache;  // X-Picp-Cache
  std::string body;
  bool ok = false;    // transport succeeded
};

Reply exchange(picp::serve::HttpConnection& conn, const std::string& method,
               const std::string& target, const std::string& body) {
  picp::serve::HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  if (!body.empty())
    request.headers.push_back({"Content-Type", "application/json"});
  Reply reply;
  try {
    conn.write_request(request, "127.0.0.1");
    picp::serve::HttpResponse response;
    picp::serve::HttpLimits limits;
    limits.io_timeout_ms = 60000;
    if (!conn.read_response(response, limits)) return reply;
    reply.ok = true;
    reply.status = response.status;
    if (const std::string* c = response.header("x-picp-cache")) reply.cache = *c;
    reply.body = std::move(response.body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "picbench: %s %s: %s\n", method.c_str(),
                 target.c_str(), e.what());
  }
  return reply;
}

/// Counters of the daemon's /metricsz.
std::map<std::string, double> scrape_counters(std::uint16_t port) {
  picp::serve::HttpConnection conn(picp::serve::connect_tcp("127.0.0.1", port));
  const Reply reply = exchange(conn, "GET", "/metricsz", "");
  PICP_REQUIRE(reply.ok && reply.status == 200, "/metricsz failed");
  std::map<std::string, double> counters;
  const picp::Json doc = picp::Json::parse(reply.body);
  for (const auto& [name, value] :
       doc.at("metrics").at("counters").members())
    counters[name] = value.as_double();
  return counters;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

std::string post_bytes(const std::string& body) {
  return "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// --- the open-loop generator -------------------------------------------------

/// One nonblocking keep-alive connection with pipelined requests.
struct Conn {
  struct Pending {
    double due = 0.0;  // scheduled send time (s since the window origin)
    int query = -1;    // index into the request set; -1 = monitor scrape
  };
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<Pending> pending;

  explicit Conn(std::uint16_t port)
      : fd(picp::serve::connect_tcp("127.0.0.1", port)) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Write what the socket takes; false on a dead connection.
  bool flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return true;
      } else {
        return false;
      }
    }
    out.clear();
    out_off = 0;
    return true;
  }

  /// Read what the socket has; false on EOF or error.
  bool fill() {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return true;
      } else {
        return false;
      }
    }
  }

  /// Pop one complete response off `in`, framed by the program's own
  /// head-block helpers; false when none is complete.
  bool next_response(int& status, std::string& body) {
    namespace wire = picp::serve::wire;
    const std::size_t head_end = wire::find_head_end(in, in_off);
    if (head_end == std::string::npos) return false;
    std::string start_line;
    std::vector<std::pair<std::string, std::string>> headers;
    wire::parse_head_block(in.substr(in_off, head_end - in_off), start_line,
                           headers);
    const std::size_t length =
        wire::content_length_of(headers, picp::serve::HttpLimits{});
    if (in.size() < head_end + length) return false;
    status = std::atoi(start_line.c_str() +
                       std::min<std::size_t>(9, start_line.size()));
    body.assign(in, head_end, length);
    in_off = head_end + length;
    if (in_off > 1 << 20) {
      in.erase(0, in_off);
      in_off = 0;
    }
    return true;
  }
};

/// The cached request set of the open-loop windows and its Zipf popularity.
struct HotSet {
  std::vector<Query> queries;
  std::vector<std::string> wire;      // request bytes per query
  std::vector<std::string> expected;  // reference body per query
  std::vector<double> cdf;            // Zipf(1) over queries

  int draw(picp::Xoshiro256& rng) const {
    const double u = rng.uniform();
    return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin());
  }
};

/// What one open-loop window saw.
struct Window {
  std::vector<double> latency_ms;  // answered correctly
  std::vector<double> late_ms;     // generator send time minus schedule
  std::uint64_t sent = 0, failed = 0;
  std::uint64_t wrong_bodies = 0;      // 200s unlike the offline result
  std::uint64_t monitor_failures = 0;  // failed /metricsz scrapes
};

/// One open-loop window of `duration` seconds at `rate` req/s, driven from
/// this thread: `load` pipelined keep-alive connections plus one monitor
/// connection scraping /metricsz?format=prometheus once a second. Arrivals
/// are Poisson and requests Zipf-distributed, both drawn from `seed`; each
/// request is timed from its scheduled send time. Requests still unanswered
/// 3 s after the window fail.
Window open_loop_window(std::uint16_t port, std::size_t load,
                        const HotSet& hot, std::uint64_t seed, double rate,
                        double duration) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t i = 0; i <= load; ++i)  // the last one is the monitor
    conns.push_back(std::make_unique<Conn>(port));
  Conn& monitor = *conns.back();
  picp::Xoshiro256 rng(seed);
  Window r;
  const auto origin = Clock::now();
  const auto now = [&origin] { return seconds_since(origin); };
  double next_due = 0.0;
  double next_scrape = 0.0;
  std::size_t rr = 0;
  const double drain_limit = duration + 3.0;
  std::vector<pollfd> fds(conns.size());
  bool broken = false;

  while (!broken) {
    double t = now();
    while (next_due <= t && next_due < duration) {
      const int q = hot.draw(rng);
      Conn& c = *conns[rr++ % load];
      c.out += hot.wire[static_cast<std::size_t>(q)];
      c.pending.push_back({next_due, q});
      r.late_ms.push_back((t - next_due) * 1e3);
      ++r.sent;
      next_due += -std::log(1.0 - rng.uniform()) / rate;
    }
    if (t >= next_scrape && t < duration && monitor.pending.empty()) {
      monitor.out +=
          "GET /metricsz?format=prometheus HTTP/1.1\r\nHost: 127.0.0.1\r\n"
          "\r\n";
      monitor.pending.push_back({t, -1});
      next_scrape += 1.0;
    }
    bool idle = true;
    for (const auto& c : conns) {
      if (!c->out.empty() && !c->flush()) broken = true;
      idle = idle && c->pending.empty();
    }
    if ((t >= duration && idle) || t >= drain_limit) break;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i]->out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    // Poll without sleeping: on a virtual machine a sleeping thread's
    // CPU may take milliseconds to wake, which would show up as send
    // lateness and as latency the daemon did not cause. The generator
    // owns one core for the duration of a window.
    ::poll(fds.data(), fds.size(), 0);
    t = now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = *conns[i];
      if (!c.fill()) broken = true;
      int status = 0;
      std::string body;
      while (!c.pending.empty() && c.next_response(status, body)) {
        const Conn::Pending p = c.pending.front();
        c.pending.pop_front();
        if (p.query < 0) {
          if (status != 200) ++r.monitor_failures;
        } else if (status == 200 &&
                   body == hot.expected[static_cast<std::size_t>(p.query)]) {
          r.latency_ms.push_back((t - p.due) * 1e3);
        } else {
          ++r.failed;
          if (status == 200) ++r.wrong_bodies;
        }
      }
    }
  }
  for (std::size_t i = 0; i < load; ++i) r.failed += conns[i]->pending.size();
  return r;
}

// --- request sets ------------------------------------------------------------

const std::vector<double>& filters() {
  static const std::vector<double> f = {0.016, 0.02, 0.024, 0.028, 0.032};
  return f;
}

/// The cold stream: distinct configs whose rank counts fill [16, 1044]
/// evenly in every prefix (a golden-ratio sequence from a seeded start) and
/// whose mappers alternate, so every run gets the same mix of cheap and
/// expensive misses; the seed picks the start and each config's filter.
std::vector<Query> cold_stream(std::uint64_t seed, std::size_t count) {
  constexpr picp::Rank kLo = 16, kHi = 1044;
  picp::Xoshiro256 rng(seed);
  std::set<std::string> seen;
  std::vector<Query> out;
  double x = rng.uniform();
  for (std::size_t k = 0; out.size() < count; ++k) {
    x += 0.6180339887498949;
    x -= std::floor(x);
    Query q;
    q.mapper = k % 2 == 0 ? "bin" : "element";
    q.ranks = kLo + static_cast<picp::Rank>(x * (kHi - kLo + 1));
    q.filter = filters()[rng.uniform_below(filters().size())];
    if (seen.insert(q.label()).second) out.push_back(q);
  }
  return out;
}

/// Offline reference bodies for `queries`, with the invariants checked.
std::vector<std::string> reference_bodies(const Inputs& inputs,
                                          const std::vector<Query>& queries,
                                          Report& report) {
  const picp::TraceReader probe(inputs.trace);
  const picp::SpectralMesh mesh = default_mesh(probe);
  const picp::ModelSet models = picp::ModelSet::load(inputs.models);
  const auto outcomes =
      reference_outcomes(mesh, models, inputs.trace, queries, cores());
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string broken =
        check_invariants(outcomes[i], probe.num_particles());
    if (!broken.empty()) report.fail(queries[i].label() + ": " + broken);
    bodies.push_back(render_predict_body({queries[i]}, {outcomes[i]}));
  }
  return bodies;
}

// --- in-process serving layers (traced run) ----------------------------------

struct ServeLayers {
  double parse_us = 0, handle_hit_us = 0, handle_miss_ms = 0,
         contention_ms = 0, roundtrip_us = 0;
};

picp::serve::HttpRequest parsed_request(const std::string& body) {
  picp::serve::RequestParser parser{picp::serve::HttpLimits{}};
  const std::string wire = post_bytes(body);
  parser.feed(wire.data(), wire.size());
  picp::serve::HttpRequest request;
  PICP_ENSURE(parser.next(request), "request did not frame");
  request.from_loopback = true;
  return request;
}

/// Times RequestParser and PredictionService::handle in this process on the
/// daemon's inputs, and one-connection round trips against the daemon.
ServeLayers measure_serve_layers(const Inputs& inputs,
                                 const std::vector<Query>& hits,
                                 const std::vector<Query>& misses,
                                 std::uint16_t port) {
  ServeLayers out;
  picp::telemetry::configure({});  // the daemon always collects telemetry
  picp::serve::ServiceConfig config;
  config.trace_path = inputs.trace;
  config.models_path = inputs.models;

  // Parse: a RequestParser framing each hit request's bytes, in batches
  // of 1000; the median batch's time per request.
  std::vector<std::string> wire;
  for (const Query& q : hits) wire.push_back(post_bytes(q.body()));
  std::vector<double> per;
  for (int batch = 0; batch < 21; ++batch) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < 1000; ++i) {
      const std::string& bytes = wire[i % wire.size()];
      picp::serve::RequestParser parser{picp::serve::HttpLimits{}};
      parser.feed(bytes.data(), bytes.size());
      picp::serve::HttpRequest request;
      PICP_ENSURE(parser.next(request), "request did not frame");
    }
    per.push_back(seconds_since(start) * 1e6 / 1000.0);
  }
  out.parse_us = picp::percentile(per, 50.0);

  {
    picp::serve::PredictionService service(config);
    std::vector<picp::serve::HttpRequest> requests;
    for (const Query& q : hits) {
      requests.push_back(parsed_request(q.body()));
      service.handle(requests.back());  // warm
    }
    per.clear();
    for (int batch = 0; batch < 21; ++batch) {
      const auto start = Clock::now();
      for (int i = 0; i < 500; ++i)
        service.handle(requests[static_cast<std::size_t>(i) % requests.size()]);
      per.push_back(seconds_since(start) * 1e6 / 500.0);
    }
    out.handle_hit_us = picp::percentile(per, 50.0);
  }

  // Miss alone, then the same calls with cores() of them at once, each on
  // a fresh service so every call is cold.
  std::vector<double> alone, together;
  {
    picp::serve::PredictionService service(config);
    for (const Query& q : misses) {
      const picp::serve::HttpRequest request = parsed_request(q.body());
      const auto start = Clock::now();
      service.handle(request);
      alone.push_back(seconds_since(start) * 1e3);
    }
  }
  {
    picp::serve::PredictionService service(config);
    const std::size_t width = cores();
    for (std::size_t first = 0; first < misses.size(); first += width) {
      const std::size_t n = std::min(width, misses.size() - first);
      std::vector<double> times(n);
      std::vector<std::thread> group;
      for (std::size_t i = 0; i < n; ++i)
        group.emplace_back([&, i] {
          const picp::serve::HttpRequest request =
              parsed_request(misses[first + i].body());
          const auto start = Clock::now();
          service.handle(request);
          times[i] = seconds_since(start) * 1e3;
        });
      for (std::thread& t : group) t.join();
      together.insert(together.end(), times.begin(), times.end());
    }
  }
  out.handle_miss_ms = picp::percentile(alone, 50.0);
  out.contention_ms =
      picp::percentile(together, 50.0) - picp::percentile(alone, 50.0);

  // Idle round trips on one connection, a warmed hit each time.
  picp::serve::HttpConnection conn(picp::serve::connect_tcp("127.0.0.1", port));
  const std::string body = hits.front().body();
  exchange(conn, "POST", "/v1/predict", body);
  std::vector<double> trips;
  for (int i = 0; i < 2000; ++i) {
    const auto start = Clock::now();
    const Reply reply = exchange(conn, "POST", "/v1/predict", body);
    trips.push_back(seconds_since(start) * 1e6);
    PICP_REQUIRE(reply.ok && reply.status == 200, "round trip failed");
  }
  out.roundtrip_us = picp::percentile(trips, 50.0);
  return out;
}

void report_serve_layers(const ServeLayers& s, Report& report) {
  report.metric("serve.parse_us", s.parse_us, "us");
  report.metric("serve.handle_hit_us", s.handle_hit_us, "us");
  report.metric("serve.roundtrip_us", s.roundtrip_us, "us");
  report.metric("serve.reactor_us",
                s.roundtrip_us - s.parse_us - s.handle_hit_us, "us");
  report.metric("serve.handle_miss_ms", s.handle_miss_ms, "ms");
  report.metric("serve.contention_ms", s.contention_ms, "ms");
}

/// Pipeline layers of `queries` on the serving trace: the work a cold miss
/// does inside the daemon, decomposed in this process.
void report_pipeline_layers(const Options& options, const Inputs& inputs,
                            const std::vector<Query>& queries,
                            Report& report) {
  const picp::SpectralMesh mesh = default_mesh(picp::TraceReader(inputs.trace));
  SpanRecorder spans;
  const Layers layers =
      decompose(mesh, picp::ModelSet::load(inputs.models), inputs.trace,
                queries, spans, nullptr);
  report_layers(layers, report);
  spans.write_chrome(options.spans_out);
}

// --- open-loop windows (traced run) ------------------------------------------

constexpr double kNominalRps = 2000.0;
// At the nominal rate a window holds about 1000 requests.
constexpr double kWindowS = 0.5;
constexpr int kPairs = 16;  // bare/armed window pairs

/// 32 configs at rank counts 8, 24, ..., 504; the seed picks each one's
/// mapper and filter and the Zipf popularity order.
HotSet make_hot_set(const Options& options, const Inputs& inputs,
                    Report& report) {
  HotSet hot;
  picp::Xoshiro256 rng(options.seed * 7919 + 1);
  for (picp::Rank r = 8; r <= 504; r += 16)
    hot.queries.push_back({rng.uniform() < 0.5 ? "bin" : "element", r,
                           filters()[rng.uniform_below(filters().size())]});
  hot.expected = reference_bodies(inputs, hot.queries, report);
  std::vector<double> weight(hot.queries.size());
  for (std::size_t i = 0; i < weight.size(); ++i) {
    const std::size_t j = rng.uniform_below(i + 1);  // Fisher-Yates
    weight[i] = weight[j];
    weight[j] = 1.0 / static_cast<double>(i + 1);
  }
  double total = 0.0;
  for (std::size_t i = 0; i < hot.queries.size(); ++i) {
    hot.wire.push_back(post_bytes(hot.queries[i].body()));
    total += weight[i];
    hot.cdf.push_back(total);
  }
  for (double& c : hot.cdf) c /= total;
  hot.cdf.back() = 1.0;
  return hot;
}

/// Send every hot request once (cold) and check each reply body.
void warm(std::uint16_t port, const HotSet& hot, Report& report) {
  picp::serve::HttpConnection conn(picp::serve::connect_tcp("127.0.0.1", port));
  for (std::size_t i = 0; i < hot.queries.size(); ++i) {
    const Reply reply =
        exchange(conn, "POST", "/v1/predict", hot.queries[i].body());
    report.attempt();
    if (!reply.ok || reply.status != 200 || reply.body != hot.expected[i]) {
      report.failed_op();
      report.fail("warm-up " + hot.queries[i].label() + ": status " +
                  std::to_string(reply.status) + ", body " + reply.body);
    }
  }
}

/// Load connections of the open loop; with the monitor's, nproc in all.
std::size_t load_connections() { return std::max(1u, cores() - 1); }

/// The open loop's layer figures: the generator's own lateness at the
/// nominal rate, and the observability budget — the p50 of a daemon fully
/// armed (access log and a span for every request) against a bare one, each
/// with the hot set warmed. The host's speed drifts over minutes and stalls
/// the guest at random, so the two daemons stay up side by side and their
/// windows alternate in pairs: both windows of a pair replay one seeded
/// schedule, the pairs take turns at which daemon goes first, and the figure
/// is the median of the pairs' differences.
void report_open_loop_layers(const Options& options, const Inputs& inputs,
                             const HotSet& hot, Report& report) {
  const Daemon bare(options, inputs, "bare", /*access_log=*/false);
  const Daemon armed(options, inputs, "armed", /*access_log=*/true,
                     /*sample_every_request=*/true);
  warm(bare.port(), hot, report);
  warm(armed.port(), hot, report);
  std::vector<double> overhead_pct, late, p50s[2];
  for (int pair = 0; pair < kPairs; ++pair) {
    double p50[2] = {0.0, 0.0};  // bare, armed
    bool answered = true;
    for (int turn = 0; turn < 2; ++turn) {
      const int which = pair % 2 == 0 ? turn : 1 - turn;
      const Window w = open_loop_window(
          (which == 0 ? bare : armed).port(), load_connections(), hot,
          options.seed * 65537 + static_cast<std::uint64_t>(pair),
          kNominalRps, kWindowS);
      report.attempt(w.sent);
      report.failed_op(w.failed);
      if (w.wrong_bodies > 0)
        report.fail(std::to_string(w.wrong_bodies) +
                    " responses differ from the offline pipeline's result");
      if (w.monitor_failures > 0) report.fail("a /metricsz scrape failed");
      late.insert(late.end(), w.late_ms.begin(), w.late_ms.end());
      if (w.latency_ms.empty()) {
        report.fail("an open-loop window got no correct answer");
        answered = false;
        continue;
      }
      p50[which] = picp::percentile(w.latency_ms, 50.0);
      p50s[which].push_back(p50[which]);
    }
    if (answered) overhead_pct.push_back(100.0 * (p50[1] - p50[0]) / p50[0]);
  }
  if (!p50s[0].empty() && !p50s[1].empty())
    std::fprintf(stderr,
                 "picbench: open loop at %.0f req/s, median window p50: "
                 "bare %.4f ms, armed %.4f ms\n",
                 kNominalRps, picp::percentile(p50s[0], 50.0),
                 picp::percentile(p50s[1], 50.0));
  report.metric("telemetry.overhead_pct",
                overhead_pct.empty() ? 0.0
                                     : picp::percentile(overhead_pct, 50.0),
                "%");
  report.metric("loadgen.late_p99_ms", picp::percentile(late, 99.0), "ms");
}

}  // namespace

void report_serving_layers(const Options& options, const Inputs& inputs,
                           const std::vector<Query>& misses, Report& report) {
  const HotSet hot = make_hot_set(options, inputs, report);
  {
    Daemon daemon(options, inputs, "daemon", /*access_log=*/true);
    const std::vector<Query> hits(hot.queries.begin(),
                                  hot.queries.begin() + 8);
    report_serve_layers(
        measure_serve_layers(inputs, hits, misses, daemon.port()), report);
  }
  report_open_loop_layers(options, inputs, hot, report);
}

// --- serve_cold ----------------------------------------------------------------

namespace {

constexpr double kDuplicateShare = 0.2;  // of requests; half byte-identical

struct ColdSample {
  std::size_t query = 0;  // index into the universe
  double latency_ms = 0.0;
  Reply reply;
};

}  // namespace

int run_serve_cold(const Options& options) {
  Report report;
  const Inputs inputs = input_paths(options.inputs);
  // Far more distinct configs than a run reaches, so every fresh request
  // misses the workload cache (16 entries by default). A client stops
  // early should a run ever use them all up.
  const std::vector<Query> universe =
      cold_stream(options.seed * 104729 + 2, 6000);
  double setup_s = 0.0;
  auto daemon = spawn_measured(options, inputs, /*access_log=*/true, &setup_s);
  const auto before = scrape_counters(daemon->port());

  const std::size_t clients = cores();
  std::mutex mutex;  // guards in_flight, next_fresh, samples
  std::map<std::size_t, std::size_t> in_flight;  // client -> universe index
  std::size_t next_fresh = 0;
  std::vector<ColdSample> samples;
  std::atomic<std::uint64_t> transport_failures{0};
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      picp::Xoshiro256 rng(options.seed * 31 + c);
      picp::serve::HttpConnection conn(
          picp::serve::connect_tcp("127.0.0.1", daemon->port()));
      while (seconds_since(start) < options.seconds) {
        std::size_t index = 0;
        std::string body;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          std::vector<std::size_t> others;
          for (const auto& [client, q] : in_flight)
            if (client != c) others.push_back(q);
          if (rng.uniform() < kDuplicateShare && !others.empty()) {
            index = others[rng.uniform_below(others.size())];
            body = rng.uniform() < 0.5
                       ? universe[index].body()
                       : universe[index].reencoded_body(
                             static_cast<unsigned>(rng.uniform_below(3)));
          } else {
            if (next_fresh == universe.size()) return;
            index = next_fresh++;
            body = universe[index].body();
            in_flight[c] = index;
          }
        }
        const auto sent = Clock::now();
        Reply reply = exchange(conn, "POST", "/v1/predict", body);
        const double ms = seconds_since(sent) * 1e3;
        const std::lock_guard<std::mutex> lock(mutex);
        in_flight.erase(c);
        if (!reply.ok) {
          ++transport_failures;
          return;
        }
        samples.push_back({index, ms, std::move(reply)});
      }
    });
  for (std::thread& t : threads) t.join();
  const double wall = seconds_since(start);
  const auto after = scrape_counters(daemon->port());

  // Every answer must be the offline pipeline's result for its config.
  std::vector<std::size_t> distinct;
  for (const ColdSample& s : samples) distinct.push_back(s.query);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const std::size_t sent_distinct = distinct.size();
  // The digest covers the first 16 configs of the stream, which every run
  // reaches, so it is the same for every run of one seed.
  for (std::size_t i = 0; i < 16; ++i)
    if (!std::binary_search(distinct.begin(), distinct.end(), i))
      distinct.insert(std::lower_bound(distinct.begin(), distinct.end(), i),
                      i);
  std::vector<Query> checked;
  for (const std::size_t i : distinct) checked.push_back(universe[i]);
  const std::vector<std::string> bodies =
      reference_bodies(inputs, checked, report);
  const auto expected = [&](std::size_t index) -> const std::string& {
    return bodies[static_cast<std::size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), index) -
        distinct.begin())];
  };
  Digest digest;
  for (std::size_t i = 0; i < 16; ++i) digest.text(expected(i));
  report.check_digest(options, digest);

  std::vector<double> miss_ms;
  double hits = 0, shed = 0;
  report.attempt(samples.size() + transport_failures);
  report.failed_op(transport_failures);
  for (const ColdSample& s : samples) {
    if (s.reply.status != 200) {
      report.failed_op();
      if (s.reply.status == 503) ++shed;
      continue;
    }
    if (s.reply.body != expected(s.query)) {
      report.failed_op();
      report.fail(universe[s.query].label() +
                  ": daemon body differs from the offline pipeline's");
      continue;
    }
    if (s.reply.cache == "miss") miss_ms.push_back(s.latency_ms);
    if (s.reply.cache == "hit") ++hits;
  }
  std::fprintf(stderr,
               "picbench: %zu requests, %zu cold misses, %zu distinct "
               "configs in %.2f s\n",
               samples.size(), miss_ms.size(), distinct.size(), wall);
  if (miss_ms.size() < 100)
    report.fail("only " + std::to_string(miss_ms.size()) +
                " cold misses; the run needs at least 100");

  if (options.traced) {
    const double answered = static_cast<double>(samples.size());
    report.metric("serve.response_hit_ratio", hits / answered, "fraction");
    report.metric("serve.generations_per_distinct",
                  delta(before, after, "serve.workload.generations") /
                      static_cast<double>(sent_distinct),
                  "ratio");
    report.metric("serve.batch_member_ratio",
                  delta(before, after, "serve.batch.members") / answered,
                  "fraction");
    report.metric("serve.shed_ratio", shed / answered, "fraction");
    const std::vector<Query> sample(universe.begin(), universe.begin() + 8);
    report_pipeline_layers(options, inputs, sample, report);
    const std::vector<Query> misses(universe.begin() + 8,
                                    universe.begin() + 8 + 4 * clients);
    report_serve_layers(
        measure_serve_layers(inputs, sample, misses, daemon->port()), report);
    daemon.reset();
    report_open_loop_layers(options, inputs,
                            make_hot_set(options, inputs, report), report);
  } else {
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", daemon->peak_rss_mb(), "MB");
    // A run without cold misses has failed above; its latencies read 0.
    const auto miss_percentile = [&miss_ms](double q) {
      return miss_ms.empty() ? 0.0 : picp::percentile(miss_ms, q);
    };
    report.metric("p50_ms", miss_percentile(50.0), "ms");
    report.metric("tail_ms", miss_percentile(90.0), "ms");
    report.metric("throughput_per_s",
                  static_cast<double>(samples.size()) / wall, "1/s");
  }
  daemon.reset();
  report.print();
  return 0;
}

}  // namespace picbench
