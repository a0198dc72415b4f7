// Load generator for the prediction daemon: spins up the real HttpServer
// (epoll reactor) + PredictionService in-process, then drives it through
// four phases over the same server:
//
//   warmup        one sequential pass per distinct config (cold
//                 generation, not measured) so the measured phases
//                 compare like with like;
//   baseline      closed loop, K persistent keep-alive connections — the
//                 all-hits hot path the daemon is built around;
//   delay_1in100  the same load with `http.write=delay(5):1in100` armed —
//                 the failure-mode column: what 1% slow writes do to p99;
//   open_loop_10k N concurrent connections (default 10000) opened by a
//                 forked client process, each issuing one identical
//                 cached request — the reactor's concurrency ceiling.
//                 Forked because the container caps fds at 20000 per
//                 process: the server holds N sockets, the client child
//                 holds the other N in its own fd table. Latency here is
//                 burst-to-response (open loop), not per-request service
//                 time; `peak_connections` proves all N were concurrent.
//
// Reports latency percentiles, throughput, and the cache hit rate observed
// on the wire (X-Picp-Cache) per phase. Snapshot rows live in
// results/micro_serve.txt; --json writes the machine-readable snapshot
// appended to BENCH_serve.json, tagged with its observability mode
// ("armed": this bench always runs fully instrumented), so that
// tools/check_bench_serve.sh compares p99 only against snapshots of the
// same configuration.
//
// Usage: micro_serve [--connections K] [--requests M] [--distinct D]
//                    [--open-connections N] [--json FILE]

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "picsim/sim_driver.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"
#include "util/failpoint.hpp"

namespace picp {
namespace {

struct LoadResult {
  std::vector<double> latencies_us;  // one per completed request
  std::uint64_t wire_hits = 0;
  std::uint64_t failures = 0;
};

/// One measured phase, aggregated over every client.
struct PhaseResult {
  std::string name;
  std::size_t samples = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, max_us = 0;
  double throughput_rps = 0;
  double cache_hit_pct = 0;
  std::uint64_t failures = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// One client: a persistent connection issuing `requests` POSTs, rotating
/// the rank count through `distinct` values.
LoadResult run_client(std::uint16_t port, std::size_t requests,
                      std::size_t distinct, std::size_t seed) {
  LoadResult result;
  result.latencies_us.reserve(requests);
  serve::HttpConnection conn(serve::connect_tcp("127.0.0.1", port));
  serve::HttpLimits limits;
  for (std::size_t i = 0; i < requests; ++i) {
    const int ranks = 16 + 16 * static_cast<int>((seed + i) % distinct);
    serve::HttpRequest request;
    request.method = "POST";
    request.target = "/v1/predict";
    request.body = "{\"ranks\": [" + std::to_string(ranks) + "]}";
    const auto start = std::chrono::steady_clock::now();
    conn.write_request(request, "127.0.0.1");
    serve::HttpResponse response;
    if (!conn.read_response(response, limits) || response.status != 200) {
      ++result.failures;
      continue;
    }
    const auto elapsed = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    result.latencies_us.push_back(elapsed);
    const std::string* cache = response.header("x-picp-cache");
    if (cache != nullptr && *cache == "hit") ++result.wire_hits;
  }
  return result;
}

/// Drive the closed loop once and fold every client into one PhaseResult.
PhaseResult run_phase(const std::string& name, std::uint16_t port,
                      std::size_t connections, std::size_t requests,
                      std::size_t distinct) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<LoadResult> per_client(connections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < connections; ++c)
    clients.emplace_back([&, c] {
      per_client[c] = run_client(port, requests, distinct, c);
    });
  for (auto& t : clients) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::vector<double> latencies;
  PhaseResult phase;
  phase.name = name;
  for (const LoadResult& r : per_client) {
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    phase.cache_hit_pct += static_cast<double>(r.wire_hits);
    phase.failures += r.failures;
  }
  std::sort(latencies.begin(), latencies.end());
  phase.samples = latencies.size();
  const double total = static_cast<double>(latencies.size());
  phase.p50_us = percentile(latencies, 50);
  phase.p95_us = percentile(latencies, 95);
  phase.p99_us = percentile(latencies, 99);
  phase.max_us = latencies.empty() ? 0.0 : latencies.back();
  phase.throughput_rps = total / wall_seconds;
  phase.cache_hit_pct =
      total > 0 ? 100.0 * phase.cache_hit_pct / total : 0.0;
  return phase;
}

/// The open-loop client, run inside the forked child: open `n` concurrent
/// connections, send one identical cached request on every one of them,
/// then collect every response. All sockets stay open until every
/// response is read, so the server provably holds `n` connections at once.
PhaseResult run_open_loop_client(std::uint16_t port, std::size_t n) {
  PhaseResult phase;
  phase.name = "open_loop_10k";
  std::vector<std::unique_ptr<serve::HttpConnection>> conns;
  conns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      conns.push_back(std::make_unique<serve::HttpConnection>(
          serve::connect_tcp("127.0.0.1", port)));
    } catch (const std::exception&) {
      ++phase.failures;
      conns.push_back(nullptr);
    }
  }

  serve::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/predict";
  request.body = "{\"ranks\": [16]}";  // warmed by the closed-loop phases

  const auto burst_start = std::chrono::steady_clock::now();
  std::vector<std::chrono::steady_clock::time_point> sent(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (conns[i] == nullptr) continue;
    try {
      conns[i]->write_request(request, "127.0.0.1");
      sent[i] = std::chrono::steady_clock::now();
    } catch (const std::exception&) {
      ++phase.failures;
      conns[i].reset();
    }
  }

  std::vector<double> latencies;
  latencies.reserve(conns.size());
  std::uint64_t wire_hits = 0;
  serve::HttpLimits limits;
  limits.io_timeout_ms = 120000;  // the whole burst drains through 1 core
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (conns[i] == nullptr) continue;
    serve::HttpResponse response;
    try {
      if (!conns[i]->read_response(response, limits) ||
          response.status != 200) {
        ++phase.failures;
        continue;
      }
    } catch (const std::exception&) {
      ++phase.failures;
      continue;
    }
    latencies.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - sent[i])
                            .count());
    const std::string* cache = response.header("x-picp-cache");
    if (cache != nullptr && *cache == "hit") ++wire_hits;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    burst_start)
          .count();

  std::sort(latencies.begin(), latencies.end());
  phase.samples = latencies.size();
  phase.p50_us = percentile(latencies, 50);
  phase.p95_us = percentile(latencies, 95);
  phase.p99_us = percentile(latencies, 99);
  phase.max_us = latencies.empty() ? 0.0 : latencies.back();
  phase.throughput_rps =
      wall_seconds > 0 ? static_cast<double>(latencies.size()) / wall_seconds
                       : 0.0;
  phase.cache_hit_pct = latencies.empty()
                            ? 0.0
                            : 100.0 * static_cast<double>(wire_hits) /
                                  static_cast<double>(latencies.size());
  return phase;
}

/// Fork the open-loop client and read its PhaseResult back over a pipe.
/// The fork keeps the client's n sockets out of the server process's fd
/// table (the per-process limit would not fit both sides of 10k pairs).
PhaseResult run_open_loop(std::uint16_t port, std::size_t n) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const PhaseResult phase = run_open_loop_client(port, n);
    ::dprintf(fds[1], "%zu %f %f %f %f %f %f %llu\n", phase.samples,
              phase.p50_us, phase.p95_us, phase.p99_us, phase.max_us,
              phase.throughput_rps, phase.cache_hit_pct,
              static_cast<unsigned long long>(phase.failures));
    ::close(fds[1]);
    std::_Exit(0);  // no atexit: the child must not tear down server state
  }
  ::close(fds[1]);
  std::string line;
  char buf[256];
  ssize_t got;
  while ((got = ::read(fds[0], buf, sizeof buf)) > 0)
    line.append(buf, static_cast<std::size_t>(got));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);

  PhaseResult phase;
  phase.name = "open_loop_10k";
  unsigned long long failures = 0;
  if (std::sscanf(line.c_str(), "%zu %lf %lf %lf %lf %lf %lf %llu",
                  &phase.samples, &phase.p50_us, &phase.p95_us,
                  &phase.p99_us, &phase.max_us, &phase.throughput_rps,
                  &phase.cache_hit_pct, &failures) != 8) {
    std::fprintf(stderr, "micro_serve: open-loop child reported nothing "
                         "(exit status %d)\n", status);
    phase.failures = n;  // treat a vanished child as total failure
    return phase;
  }
  phase.failures = failures;
  return phase;
}

long long arg_or(int argc, char** argv, const char* name, long long fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  return fallback;
}

const char* arg_str(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

}  // namespace
}  // namespace picp

int main(int argc, char** argv) {
  using namespace picp;
  namespace fs = std::filesystem;

  const auto connections =
      static_cast<std::size_t>(arg_or(argc, argv, "--connections", 8));
  const auto requests =
      static_cast<std::size_t>(arg_or(argc, argv, "--requests", 250));
  const auto distinct =
      static_cast<std::size_t>(arg_or(argc, argv, "--distinct", 8));
  const auto open_connections = static_cast<std::size_t>(
      arg_or(argc, argv, "--open-connections", 10000));
  const char* json_path = arg_str(argc, argv, "--json");

  // --- fixture: tiny trace + models, like the serving smoke test ----------
  const std::string work = fs::temp_directory_path() / "picp_micro_serve";
  fs::create_directories(work);
  const std::string trace_path = work + "/bench.trace";
  SimConfig cfg;
  cfg.nelx = 8;
  cfg.nely = 8;
  cfg.nelz = 16;
  cfg.bed.num_particles = 4000;
  cfg.num_iterations = 300;
  cfg.sample_every = 50;
  cfg.num_ranks = 32;
  cfg.filter_size = 0.08;
  cfg.measure = true;
  cfg.measure_min_seconds = 5e-6;
  cfg.measure_max_reps = 8;
  SimDriver driver(cfg);
  const SimResult app = driver.run(trace_path);
  ModelGenConfig mg;
  mg.symreg.population = 64;
  mg.symreg.generations = 8;
  mg.symreg.threads = 1;
  const ModelSet models = train_models(app.timings, mg);
  const std::string models_path = work + "/bench.models";
  models.save(models_path);

  // A directory arms span buffering, so sampled requests still emit their
  // spans; the bench never finalizes, so nothing is written there.
  telemetry::SessionOptions session;
  session.directory = work + "/telemetry";
  telemetry::configure(session);

  serve::ServiceConfig service_config;
  service_config.trace_path = trace_path;
  service_config.models_path = models_path;
  service_config.nelx = cfg.nelx;
  service_config.nely = cfg.nely;
  service_config.nelz = cfg.nelz;
  serve::PredictionService service(service_config);

  serve::ServerOptions options;
  // One worker per client: the server's connection-per-task model would
  // otherwise serialize persistent connections on low-core machines and
  // the percentiles would measure queueing, not service.
  options.threads = connections;
  options.reactor.max_connections =
      std::max(connections + 4, open_connections + 64);
  // The open-loop burst parks every request behind one identical config —
  // most join an in-flight execution, but the SLO must not shed the rest.
  options.reactor.max_pending_requests =
      std::max<std::size_t>(256, open_connections);
  options.listen_backlog = 4096;
  // Observability fully armed, as in production: every request traced
  // into spans and access-logged — the percentiles below price the
  // instrumented hot path, and the regression guard holds it to budget.
  options.reactor.trace_sample_n = 1;
  options.access_log_path = work + "/bench_access.ndjson";
  options.reactor.coalesce_key = [&](const serve::HttpRequest& request) {
    return service.coalesce_key(request);
  };
  serve::HttpServer server(options,
                           [&](const serve::HttpRequest& request) {
                             return service.handle(request);
                           });
  std::thread server_thread([&] { server.run(); });

  // Warmup: generate each distinct config once, sequentially, so both
  // measured phases run against a fully warm cache and their percentiles
  // differ only by the injected fault.
  const PhaseResult warmup =
      run_phase("warmup", server.port(), 1, distinct, distinct);

  const PhaseResult baseline =
      run_phase("baseline", server.port(), connections, requests, distinct);

  // Failure mode: 1% of response writes sleep 5 ms — the p99-with-faults
  // column. Deterministic seed so two runs arm the same fire pattern.
  failpoint::set_seed(20210517);
  failpoint::arm("http.write=delay(5):1in100");
  const PhaseResult faulty = run_phase("delay_1in100", server.port(),
                                       connections, requests, distinct);
  failpoint::disarm_all();

  // Concurrency ceiling: every open-loop connection from a forked child so
  // the client's sockets live in a separate fd table. Runs last — the
  // closed-loop percentiles above are unaffected by its 10k accept storm.
  PhaseResult open_loop;
  open_loop.name = "open_loop_10k";
  if (open_connections > 0)
    open_loop = run_open_loop(server.port(), open_connections);

  server.request_shutdown();
  server_thread.join();
  // serve.peak_connections is a high-water mark, so reading it after the
  // drain still reflects the open-loop burst.
  const telemetry::MetricsSnapshot metrics = telemetry::registry().snapshot();
  const auto peak_connections = static_cast<std::size_t>(
      metrics.gauge_value("serve.peak_connections"));
  const auto batch_leaders = static_cast<unsigned long long>(
      metrics.counter_value("serve.batch.leaders"));
  const auto batch_members = static_cast<unsigned long long>(
      metrics.counter_value("serve.batch.members"));

  std::printf("# micro_serve: load against the prediction daemon "
              "(in-process server, loopback TCP)\n");
  std::printf("# %zu connections x %zu requests, %zu distinct configs, "
              "cache warmed before measurement; the delay_1in100 phase "
              "runs with http.write=delay(5):1in100 armed; open_loop_10k "
              "bursts %zu one-shot connections from a forked client "
              "(latency is burst-to-response)\n",
              connections, requests, distinct, open_connections);
  std::printf("phase,connections,requests,distinct,p50_us,p95_us,p99_us,"
              "max_us,throughput_rps,cache_hit_pct,failures\n");
  std::vector<const PhaseResult*> report = {&baseline, &faulty};
  if (open_connections > 0) report.push_back(&open_loop);
  for (const PhaseResult* phase : report) {
    const bool open = phase == &open_loop;
    std::printf("%s,%zu,%zu,%zu,%.1f,%.1f,%.1f,%.1f,%.0f,%.2f,%llu\n",
                phase->name.c_str(),
                open ? open_connections : connections,
                open ? std::size_t{1} : requests,
                open ? std::size_t{1} : distinct, phase->p50_us,
                phase->p95_us, phase->p99_us, phase->max_us,
                phase->throughput_rps, phase->cache_hit_pct,
                static_cast<unsigned long long>(phase->failures));
  }
  std::printf("# peak_connections=%zu batch_leaders=%llu "
              "batch_members=%llu\n",
              peak_connections, batch_leaders, batch_members);

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "micro_serve: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"micro_serve\",\n"
                 "  \"connections\": %zu,\n"
                 "  \"requests\": %zu,\n"
                 "  \"distinct\": %zu,\n"
                 "  \"open_connections\": %zu,\n"
                 "  \"mode\": \"armed\",\n"
                 "  \"peak_connections\": %zu,\n"
                 "  \"batch_leaders\": %llu,\n"
                 "  \"batch_members\": %llu,\n"
                 "  \"phases\": [\n",
                 connections, requests, distinct, open_connections,
                 peak_connections, batch_leaders, batch_members);
    bool first = true;
    for (const PhaseResult* phase : report) {
      std::fprintf(
          out,
          "%s    {\"phase\": \"%s\", \"samples\": %zu, \"p50_us\": %.1f, "
          "\"p95_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f, "
          "\"throughput_rps\": %.0f, \"cache_hit_pct\": %.2f, "
          "\"failures\": %llu}",
          first ? "" : ",\n", phase->name.c_str(), phase->samples,
          phase->p50_us, phase->p95_us, phase->p99_us, phase->max_us,
          phase->throughput_rps, phase->cache_hit_pct,
          static_cast<unsigned long long>(phase->failures));
      first = false;
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
  }

  fs::remove_all(work);
  // The open-loop phase must both complete cleanly and prove that all N
  // connections were concurrently open on the server.
  const bool open_ok =
      open_connections == 0 ||
      (open_loop.failures == 0 && peak_connections >= open_connections);
  const bool closed_ok =
      warmup.failures + baseline.failures + faulty.failures == 0;
  return closed_ok && open_ok ? 0 : 1;
}
