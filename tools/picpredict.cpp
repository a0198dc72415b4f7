// picpredict — command-line front end to the prediction framework.
//
//   picpredict simulate <config.ini> --trace <out.trace>
//                       [--timings <out.csv>] [--resume]
//       Run the PIC proxy application described by the config; write its
//       particle trace and (with [measure] enabled) instrumented timings.
//       With [run] checkpoint_every set, an interrupted run leaves
//       <out.trace>.part + <out.trace>.ckpt; --resume continues from the
//       checkpoint and produces a byte-identical trace.
//
//   picpredict trace verify <file.trace>
//       Walk every integrity check (header CRC, per-frame CRCs, sealed
//       footer, whole-file digest); exit 0 iff the trace is intact.
//
//   picpredict trace repair <file.trace> --out <fixed.trace>
//       Salvage: recover the longest valid sample prefix from a damaged or
//       unsealed trace into a freshly sealed v2 file.
//
//   picpredict train <timings.csv> --out <models.txt>
//                    [--method auto|linear|poly|symreg] [--seed N]
//       Model Generator: fit per-kernel performance models.
//
//   picpredict workload <trace> --ranks <R> [--mapper bin] [--filter F]
//                       [--out-prefix <path>]
//       Dynamic Workload Generator: replay the trace for one processor
//       count; print utilization/peak statistics and optionally dump the
//       computation matrix as CSV.
//
//   picpredict predict <trace> --models <models.txt> --ranks <R1,R2,...>
//                      [--mapper bin] [--filter F]
//       Full prediction: workload + models + trace-driven DES; prints one
//       row per target processor count.
//
//   picpredict extrapolate <trace> --out <out.trace> --particles <N>
//       Synthesize a larger representative trace from a small-scale run.
//
//   picpredict report <telemetry-dir> [--top N] [--check]
//       Pretty-print a run's telemetry: the manifest (identity, phase
//       totals, pool utilization) and the top-N hottest span families from
//       the Chrome trace. --check validates both files against the
//       required-key schemas and exits non-zero on any violation.
//
//   picpredict serve --config <serve.ini> [--port P] [--threads N]
//                    [--ready-file F] [--telemetry-dir D]
//                    [--enable-failpoints]
//       Long-lived prediction daemon: load the trace + models once, answer
//       /v1/predict, /v1/workload, /v1/models, /healthz, /metricsz over
//       HTTP/1.1 with a content-addressed artifact cache. SIGINT/SIGTERM
//       drain in-flight requests, then exit 0 (writing the telemetry
//       manifest when --telemetry-dir is set). --enable-failpoints exposes
//       the loopback-only /v1/failpoints fault-injection endpoint.
//
//   picpredict query <endpoint> [--port P] [--host H] [--body JSON]
//                    [--repeat N] [--parallel K] [--retries R]
//                    [--max-backoff-ms MS] [--deadline-ms MS] [--quiet]
//       Client for the daemon: one request (or a closed loop of N, K at a
//       time), printing status + body. 503 (server shedding load) is
//       retried up to --retries times with capped exponential backoff and
//       full jitter, honoring the server's Retry-After as a floor.
//       --deadline-ms stamps X-Picp-Deadline-Ms so the server can 504
//       instead of finishing work nobody is waiting for.
//
//   picpredict top --port P [--host H] [--interval-ms MS] [--iterations N]
//       Live serving stats: poll /metricsz and render a refreshing table
//       of RPS and latency p50/p95/p99 (both from the RED histograms),
//       in-flight requests, queue depth, cache hit ratio, and shed/batch
//       counters. --iterations 0 (the default) polls until interrupted.
//
// Exit codes (contract, covered by tests/test_cli_errors.cpp): 0 success,
// 1 runtime failure (missing/corrupt input, prediction error, non-2xx
// query), 2 usage error (unknown command, bad flag, malformed value),
// 3 server busy — every failure was a 503 and the retry budget ran out.
//
// Fault injection: PICP_FAILPOINTS='site=action[:trigger];...' (with
// PICP_FAILPOINTS_SEED=N) arms failpoints in any command; see
// src/util/failpoint.hpp for the grammar.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "mapping/mapper.hpp"
#include "picsim/checkpoint.hpp"
#include "picsim/sim_driver.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/extrapolate.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_salvage.hpp"
#include "util/atomic_file.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload_stats.hpp"

namespace {

using namespace picp;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  picpredict simulate <config.ini> --trace <out> "
               "[--timings <csv>] [--resume]\n"
               "                      [--telemetry-dir <dir>]\n"
               "  picpredict trace verify <file>\n"
               "  picpredict trace repair <file> --out <fixed>\n"
               "  picpredict train <timings.csv> --out <models.txt> "
               "[--method auto|linear|poly|symreg] [--seed N]\n"
               "  picpredict workload <trace> --ranks <R> [--mapper M] "
               "[--filter F] [--out-prefix P]\n"
               "  picpredict predict <trace> --models <file> --ranks "
               "<R1,R2,...> [--mapper M] [--filter F]\n"
               "                     [--telemetry-dir <dir>]\n"
               "  picpredict extrapolate <trace> --out <out> --particles "
               "<N> [--seed N]\n"
               "  picpredict report <telemetry-dir> [--top N] [--check]\n"
               "  picpredict serve --config <serve.ini> [--port P] "
               "[--threads N]\n"
               "                   [--ready-file F] [--telemetry-dir D] "
               "[--enable-failpoints]\n"
               "  picpredict query <endpoint> [--port P] [--host H] "
               "[--body JSON]\n"
               "                  [--repeat N] [--parallel K] [--retries R] "
               "[--max-backoff-ms MS]\n"
               "                  [--deadline-ms MS] [--quiet]\n"
               "  picpredict top --port P [--host H] [--interval-ms MS] "
               "[--iterations N]\n"
               "\n"
               "exit codes: 0 success; 1 runtime failure (missing/corrupt "
               "input, non-2xx\n"
               "            response); 2 usage error; 3 server busy — every "
               "failure was a\n"
               "            503 and the --retries budget ran out\n"
               "\n"
               "fault injection: set PICP_FAILPOINTS="
               "'site=action[:trigger];...' (and\n"
               "optionally PICP_FAILPOINTS_SEED=N) to arm failpoints in any "
               "command\n");
  std::exit(2);
}

/// Usage-class failure (exit 2): one line, no usage wall — for malformed
/// flag *values*, where the user got the shape right but the content wrong.
[[noreturn]] void fail_usage(const std::string& msg) {
  std::fprintf(stderr, "picpredict: error: %s\n", msg.c_str());
  std::exit(2);
}

/// Numeric flag values route parse errors to exit 2 with the flag named —
/// `--ranks banana` is a usage error, not a runtime failure.
long long flag_int_value(const std::string& name, const std::string& text) {
  try {
    return parse_int(text);
  } catch (const Error&) {
    fail_usage("flag --" + name + " needs an integer, got \"" + text + "\"");
  }
}

double flag_double_value(const std::string& name, const std::string& text) {
  try {
    return parse_double(text);
  } catch (const Error&) {
    fail_usage("flag --" + name + " needs a number, got \"" + text + "\"");
  }
}

/// Fail early with errno context when an input file is absent/unreadable,
/// instead of whatever a deep parser would say (or, worse, a bare usage
/// dump). Runtime-class failure: exit 1 via the main() catch.
void require_readable(const std::string& path, const char* what) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0)
    throw Error(std::string(what) + " " + path + ": " +
                std::strerror(errno));
  if (!S_ISREG(st.st_mode))
    throw Error(std::string(what) + " " + path + ": not a regular file");
}

/// flag → value map from argv[first..). Flags take one value except the
/// names in `boolean`, which take none and map to "1".
std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int first,
    const std::set<std::string>& boolean = {}) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      usage(("bad flag: " + arg).c_str());
    const std::string name = arg.substr(2);
    if (boolean.count(name) > 0) {
      flags[name] = "1";
      continue;
    }
    if (i + 1 >= argc) usage(("flag needs a value: " + arg).c_str());
    flags[name] = argv[++i];
  }
  return flags;
}

std::string require_flag(const std::map<std::string, std::string>& flags,
                         const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) usage(("missing --" + name).c_str());
  return it->second;
}

std::string flag_or(const std::map<std::string, std::string>& flags,
                    const std::string& name, const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) usage("simulate needs a config file");
  const auto flags = parse_flags(argc, argv, 3, {"resume"});
  require_readable(argv[2], "cannot read config file");
  const SimConfig cfg = SimConfig::from_config(Config::from_file(argv[2]));
  SimDriver driver(cfg);
  RunOptions options;
  options.resume = flags.count("resume") > 0;
  const bool telemetry_on = flags.count("telemetry-dir") > 0;
  if (telemetry_on) {
    telemetry::SessionOptions session;
    session.directory = flags.at("telemetry-dir");
    telemetry::configure(session);
    telemetry::set_run_info("simulate", sim_config_fingerprint(cfg),
                            driver.threads());
    telemetry::add_run_annotation("config", argv[2]);
  }
  const SimResult result = driver.run(require_flag(flags, "trace"), options);
  if (telemetry_on) telemetry::finalize();
  std::printf("simulated %lld iterations%s, %llu trace samples, "
              "wall %.2f s\n",
              static_cast<long long>(cfg.num_iterations -
                                     result.start_iteration),
              result.start_iteration > 0 ? " (resumed)" : "",
              static_cast<unsigned long long>(result.trace_samples),
              result.wall_seconds);
  if (flags.count("timings") > 0) {
    if (result.timings.empty())
      std::fprintf(stderr, "warning: no timings collected — enable "
                           "[measure] in the config\n");
    result.timings.save_csv(flags.at("timings"));
    std::printf("wrote %zu timing records to %s\n", result.timings.size(),
                flags.at("timings").c_str());
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 4) usage("trace needs a subcommand and a trace file");
  const std::string sub = argv[2];
  const std::string path = argv[3];
  if (sub == "verify" || sub == "repair") require_readable(path, "cannot read trace file");
  if (sub == "verify") {
    if (argc > 4) usage("trace verify takes no flags");
    const SalvageReport report = scan_trace(path);
    std::printf("%s: %s\n", path.c_str(), describe(report).c_str());
    if (report.intact()) return 0;
    std::printf("recoverable: %llu samples (%llu bytes) — run `picpredict "
                "trace repair %s --out <fixed.trace>`\n",
                static_cast<unsigned long long>(report.valid_samples),
                static_cast<unsigned long long>(report.valid_bytes),
                path.c_str());
    return 1;
  }
  if (sub == "repair") {
    const auto flags = parse_flags(argc, argv, 4);
    const std::string out = require_flag(flags, "out");
    const SalvageReport report = repair_trace(path, out);
    std::printf("%s: %s\n", path.c_str(), describe(report).c_str());
    std::printf("recovered %llu samples into %s\n",
                static_cast<unsigned long long>(report.valid_samples),
                out.c_str());
    return report.valid_samples > 0 ? 0 : 1;
  }
  usage(("unknown trace subcommand: " + sub).c_str());
}

int cmd_train(int argc, char** argv) {
  if (argc < 3) usage("train needs a timings CSV");
  const auto flags = parse_flags(argc, argv, 3);
  require_readable(argv[2], "cannot read timings CSV");
  const KernelTimings timings = KernelTimings::load_csv(argv[2]);
  ModelGenConfig config;
  config.method = fit_method_from_name(flag_or(flags, "method", "auto"));
  config.symreg.seed = static_cast<std::uint64_t>(
      flag_int_value("seed", flag_or(flags, "seed", "1")));
  TrainReport report;
  const ModelSet models = train_models(timings, config, &report);
  models.save(require_flag(flags, "out"));
  std::printf("%-14s %8s %12s  formula\n", "kernel", "rows", "train MAPE");
  for (const auto& fit : report.kernels)
    std::printf("%-14s %8zu %11.2f%%  %s\n", fit.kernel.c_str(), fit.rows,
                fit.train_mape, fit.formula.c_str());
  return 0;
}

SpectralMesh mesh_for_trace(const TraceReader& trace,
                            const std::map<std::string, std::string>& flags) {
  // Mesh dimensions may be overridden; default to the scaled case study.
  const auto dim = [&flags](const char* name, long long fallback) {
    return static_cast<std::int64_t>(
        flag_int_value(name, flag_or(flags, name, std::to_string(fallback))));
  };
  return SpectralMesh(trace.header().domain, dim("nelx", 32), dim("nely", 32),
                      dim("nelz", 64),
                      static_cast<int>(dim("points-per-dim", 5)));
}

int cmd_workload(int argc, char** argv) {
  if (argc < 3) usage("workload needs a trace file");
  const auto flags = parse_flags(argc, argv, 3);
  require_readable(argv[2], "cannot read trace file");
  TraceReader trace(argv[2]);
  const SpectralMesh mesh = mesh_for_trace(trace, flags);
  // Same in-process entry point the daemon's cache fills from — the CLI is
  // a one-shot client of the pipeline, not a second implementation.
  const PredictionPipeline pipeline(mesh, ModelSet{});
  PredictionConfig pc;
  pc.num_ranks =
      static_cast<Rank>(flag_int_value("ranks", require_flag(flags, "ranks")));
  pc.mapper_kind = flag_or(flags, "mapper", "bin");
  pc.filter_size = flag_double_value("filter", flag_or(flags, "filter", "0.024"));
  const WorkloadResult workload = pipeline.generate_workload(trace, pc);

  const UtilizationStats stats = utilization(workload.comp_real);
  std::printf("intervals            : %zu\n", workload.num_intervals());
  std::printf("peak particles/rank  : %lld\n",
              static_cast<long long>(stats.peak_load));
  std::printf("resource utilization : %.2f%%\n",
              100.0 * stats.mean_active_fraction);
  std::printf("migrated particles   : %lld\n",
              static_cast<long long>(workload.comm_real.total_volume()));
  std::printf("ghost transfers      : %lld\n",
              static_cast<long long>(workload.comm_ghost.total_volume()));
  std::printf("%s", ascii_heatmap(workload.comp_real).c_str());
  if (flags.count("out-prefix") > 0) {
    const std::string prefix = flags.at("out-prefix");
    workload.comp_real.write_csv(prefix + ".comp_real.csv");
    workload.comp_ghost.write_csv(prefix + ".comp_ghost.csv");
    std::printf("matrices written to %s.comp_{real,ghost}.csv\n",
                prefix.c_str());
  }
  return 0;
}

int cmd_predict(int argc, char** argv) {
  if (argc < 3) usage("predict needs a trace file");
  const auto flags = parse_flags(argc, argv, 3);
  const bool telemetry_on = flags.count("telemetry-dir") > 0;
  if (telemetry_on) {
    telemetry::SessionOptions session;
    session.directory = flags.at("telemetry-dir");
    telemetry::configure(session);
    telemetry::set_run_info("predict", 0, 1);
    telemetry::add_run_annotation("trace", argv[2]);
    telemetry::add_run_annotation("models", require_flag(flags, "models"));
    telemetry::add_run_annotation("ranks", require_flag(flags, "ranks"));
    telemetry::add_run_annotation("mapper", flag_or(flags, "mapper", "bin"));
  }
  require_readable(argv[2], "cannot read trace file");
  require_readable(require_flag(flags, "models"), "cannot read models file");
  TraceReader trace(argv[2]);
  const SpectralMesh mesh = mesh_for_trace(trace, flags);
  const ModelSet models = ModelSet::load(require_flag(flags, "models"));
  const PredictionPipeline pipeline(mesh, models);

  std::printf("%8s %16s %18s %14s %12s\n", "ranks", "predicted time s",
              "critical path s", "workload gen s", "DES events");
  for (const std::string& field :
       split(require_flag(flags, "ranks"), ',')) {
    PredictionConfig pc;
    pc.num_ranks = static_cast<Rank>(flag_int_value("ranks", field));
    pc.mapper_kind = flag_or(flags, "mapper", "bin");
    pc.filter_size =
        flag_double_value("filter", flag_or(flags, "filter", "0.024"));
    const PredictionOutcome outcome = pipeline.predict(trace, pc);
    std::printf("%8d %16.5f %18.5f %14.3f %12llu\n", pc.num_ranks,
                outcome.sim.total_seconds,
                outcome.sim.critical_path_seconds,
                outcome.workload_gen_seconds,
                static_cast<unsigned long long>(outcome.sim.events));
  }
  if (telemetry_on) telemetry::finalize();
  return 0;
}

/// One span family rolled up from the Chrome trace: total/max duration and
/// how many threads emitted it.
struct SpanAggregate {
  double total_us = 0.0;
  double max_us = 0.0;
  std::uint64_t count = 0;
  std::set<std::int64_t> tids;
};

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PICP_REQUIRE(in.is_open(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int cmd_report(int argc, char** argv) {
  if (argc < 3) usage("report needs a telemetry directory");
  const auto flags = parse_flags(argc, argv, 3, {"check"});
  const std::string dir = argv[2];
  const bool check = flags.count("check") > 0;
  const auto top_n = static_cast<std::size_t>(
      flag_int_value("top", flag_or(flags, "top", "10")));
  int violations = 0;
  const auto violation = [&violations](const std::string& what) {
    std::fprintf(stderr, "schema violation: %s\n", what.c_str());
    ++violations;
  };

  // --- Manifest: load_manifest() enforces the key schema itself ------------
  const telemetry::RunManifest manifest =
      telemetry::load_manifest(dir + "/manifest.json");
  std::printf("run      : %s %s on %s (%s)\n", manifest.tool.c_str(),
              manifest.command.c_str(), manifest.hostname.c_str(),
              manifest.created_utc.c_str());
  std::printf("build    : %s\n", manifest.git_describe.c_str());
  std::printf("config   : fingerprint 0x%016llx, %llu threads\n",
              static_cast<unsigned long long>(manifest.config_fingerprint),
              static_cast<unsigned long long>(manifest.threads));
  std::printf("totals   : wall %.3f s, process CPU %.3f s\n",
              manifest.wall_seconds, manifest.process_cpu_seconds);
  if (!manifest.extra.empty()) {
    for (const auto& [key, value] : manifest.extra)
      std::printf("extra    : %s = %s\n", key.c_str(), value.c_str());
  }

  std::vector<telemetry::PhaseTotal> phases = manifest.phases;
  std::sort(phases.begin(), phases.end(),
            [](const telemetry::PhaseTotal& a, const telemetry::PhaseTotal& b) {
              return a.wall_seconds > b.wall_seconds;
            });
  std::printf("\n%-28s %12s %12s %10s\n", "phase", "wall s", "cpu s",
              "count");
  for (const auto& p : phases)
    std::printf("%-28s %12.6f %12.6f %10llu\n", p.name.c_str(),
                p.wall_seconds, p.cpu_seconds,
                static_cast<unsigned long long>(p.count));

  const double util =
      manifest.metrics.gauge_value("threadpool.utilization");
  const double workers = manifest.metrics.gauge_value("threadpool.workers");
  if (workers > 0.0)
    std::printf("\npool     : %.0f workers, %.0f%% busy, %llu tasks\n",
                workers, 100.0 * util,
                static_cast<unsigned long long>(
                    manifest.metrics.counter_value("threadpool.tasks")));

  // --- Histogram quantiles: bucket-interpolated p50/p95/p99 ----------------
  bool histogram_header = false;
  for (const auto& h : manifest.metrics.histograms) {
    if (h.count == 0) continue;  // registered but never observed
    if (!histogram_header) {
      std::printf("\n%-36s %10s %12s %12s %12s\n", "histogram", "count",
                  "p50", "p95", "p99");
      histogram_header = true;
    }
    std::printf("%-36s %10llu %12.1f %12.1f %12.1f\n", h.name.c_str(),
                static_cast<unsigned long long>(h.count), h.quantile(0.50),
                h.quantile(0.95), h.quantile(0.99));
  }

  // --- Chrome trace: validate required keys, roll up span families ---------
  const Json trace = Json::parse(read_text_file(dir + "/trace.json"));
  if (!trace.is_object() || !trace.has("traceEvents")) {
    violation("trace.json: missing top-level traceEvents array");
  } else {
    const Json& events = trace.at("traceEvents");
    if (!events.is_array()) violation("trace.json: traceEvents not an array");
    std::map<std::string, SpanAggregate> families;
    std::uint64_t spans = 0;
    for (std::size_t i = 0; events.is_array() && i < events.size(); ++i) {
      const Json& e = events.at(i);
      // Trace-event format required keys: every event carries name/ph/pid/
      // tid; "X" complete events additionally carry ts + dur.
      if (!e.is_object() || !e.has("name") || !e.has("ph") ||
          !e.has("pid") || !e.has("tid")) {
        violation("trace.json: event " + std::to_string(i) +
                  " lacks a required key (name/ph/pid/tid)");
        continue;
      }
      const std::string& ph = e.at("ph").as_string();
      if (ph == "X") {
        if (!e.has("ts") || !e.has("dur")) {
          violation("trace.json: complete event " + std::to_string(i) +
                    " lacks ts/dur");
          continue;
        }
        ++spans;
        SpanAggregate& agg = families[e.at("name").as_string()];
        const double dur = e.at("dur").as_double();
        agg.total_us += dur;
        agg.max_us = std::max(agg.max_us, dur);
        ++agg.count;
        agg.tids.insert(e.at("tid").as_int());
      }
    }
    std::vector<std::pair<std::string, SpanAggregate>> hottest(
        families.begin(), families.end());
    std::sort(hottest.begin(), hottest.end(),
              [](const auto& a, const auto& b) {
                return a.second.total_us > b.second.total_us;
              });
    if (hottest.size() > top_n) hottest.resize(top_n);
    std::printf("\n%llu spans in trace.json; top %zu span families:\n",
                static_cast<unsigned long long>(spans), hottest.size());
    std::printf("%-28s %12s %12s %10s %8s\n", "span", "total ms", "max ms",
                "count", "threads");
    for (const auto& [name, agg] : hottest)
      std::printf("%-28s %12.3f %12.3f %10llu %8zu\n", name.c_str(),
                  agg.total_us * 1e-3, agg.max_us * 1e-3,
                  static_cast<unsigned long long>(agg.count),
                  agg.tids.size());
  }

  if (check) {
    if (violations > 0) {
      std::fprintf(stderr, "report --check: %d schema violation(s)\n",
                   violations);
      return 1;
    }
    std::printf("\nreport --check: manifest and trace pass the schema\n");
  }
  return 0;
}

int cmd_extrapolate(int argc, char** argv) {
  if (argc < 3) usage("extrapolate needs a trace file");
  const auto flags = parse_flags(argc, argv, 3);
  require_readable(argv[2], "cannot read trace file");
  TraceReader trace(argv[2]);
  ExtrapolationParams params;
  params.target_particles = static_cast<std::uint64_t>(
      flag_int_value("particles", require_flag(flags, "particles")));
  params.seed = static_cast<std::uint64_t>(
      flag_int_value("seed", flag_or(flags, "seed", "20210517")));
  const std::string out = require_flag(flags, "out");
  const std::uint64_t samples = extrapolate_trace(trace, out, params);
  std::printf("wrote %llu samples x %llu particles to %s\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(params.target_particles),
              out.c_str());
  return 0;
}

// --- serve ------------------------------------------------------------------

/// Merge every per-route/per-class serve.red.total_us.* histogram into one
/// (they share the bucket ladder): its count is the daemon's request count,
/// which the drain line and `top` quote, and `top` reads its quantiles.
telemetry::HistogramSnapshot aggregate_red_total(
    const telemetry::MetricsSnapshot& snapshot) {
  telemetry::HistogramSnapshot total;
  for (const auto& h : snapshot.histograms) {
    if (h.name.rfind("serve.red.total_us.", 0) != 0) continue;
    if (total.bounds.empty()) {
      total.bounds = h.bounds;
      total.counts.assign(h.counts.size(), 0);
    }
    if (h.bounds != total.bounds || h.counts.size() != total.counts.size())
      continue;
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      total.counts[i] += h.counts[i];
    total.count += h.count;
    total.sum += h.sum;
  }
  return total;
}

serve::HttpServer* g_server = nullptr;  // signal handler target

extern "C" void handle_shutdown_signal(int) {
  // request_shutdown() is one write(2) to a self-pipe: async-signal-safe.
  if (g_server != nullptr) g_server->request_shutdown();
}

int cmd_serve(int argc, char** argv) {
#ifdef __GLIBC__
  // One malloc arena for the whole daemon, set before any worker starts.
  // Each worker allocates a cold miss's temporaries next to cache entries
  // that outlive the request; with glibc's per-thread arenas every worker's
  // heap grows to its own high-water mark around the entries it pinned, so
  // peak RSS depended on which worker served which request. One shared
  // heap reuses the space any worker freed.
  ::mallopt(M_ARENA_MAX, 1);
#endif
  const auto flags = parse_flags(argc, argv, 2, {"enable-failpoints"});
  const std::string config_path = require_flag(flags, "config");
  require_readable(config_path, "cannot read serve config");
  const Config config = Config::from_file(config_path);
  serve::ServiceConfig service_config =
      serve::ServiceConfig::from_config(config);
  if (flags.count("enable-failpoints") > 0)
    service_config.enable_failpoints = true;
  require_readable(service_config.trace_path, "cannot read trace file");
  if (!service_config.models_path.empty())
    require_readable(service_config.models_path, "cannot read models file");

  serve::ServerOptions options;
  options.port = static_cast<std::uint16_t>(flag_int_value(
      "port", flag_or(flags, "port",
                      std::to_string(config.get_int("serve.port", 0)))));
  options.threads = static_cast<std::size_t>(flag_int_value(
      "threads", flag_or(flags, "threads",
                         std::to_string(config.get_int("serve.threads", 0)))));
  serve::ReactorOptions& reactor = options.reactor;
  reactor.max_connections = static_cast<std::size_t>(
      config.get_int("serve.max_connections",
                     static_cast<long long>(reactor.max_connections)));
  reactor.request_timeout_ms = static_cast<int>(config.get_int(
      "serve.request_timeout_ms", reactor.request_timeout_ms));
  reactor.drain_timeout_ms = static_cast<int>(
      config.get_int("serve.drain_timeout_ms", reactor.drain_timeout_ms));
  reactor.max_pending_requests = static_cast<std::size_t>(
      config.get_int("serve.max_pending",
                     static_cast<long long>(reactor.max_pending_requests)));
  reactor.trace_sample_n = static_cast<std::uint64_t>(
      config.get_int("serve.trace_sample_n", 0));
  reactor.slow_request_ms = static_cast<int>(
      config.get_int("serve.slow_request_ms", 0));
  options.access_log_path = config.get_string("serve.access_log", "");
  options.access_log_max_bytes = static_cast<std::size_t>(config.get_int(
      "serve.access_log_max_bytes",
      static_cast<long long>(options.access_log_max_bytes)));

  // The daemon always collects telemetry — /metricsz and the cache
  // hit/miss counters are part of the serving contract, not an opt-in.
  // --telemetry-dir additionally writes trace.json + manifest.json on
  // shutdown (the drain manifest the smoke test validates).
  const bool telemetry_persisted = flags.count("telemetry-dir") > 0;
  telemetry::SessionOptions session;
  if (telemetry_persisted) session.directory = flags.at("telemetry-dir");
  telemetry::configure(session);
  // Sampled request spans are written only into --telemetry-dir's trace.
  for (const char* key : {"serve.trace_sample_n", "serve.slow_request_ms"})
    if (!telemetry_persisted && config.get_int(key, 0) > 0)
      PICP_LOG_WARN << key << " is set but no --telemetry-dir is given: "
                    << "its request spans are not recorded";
  telemetry::add_run_annotation("config", config_path);
  telemetry::add_run_annotation("trace", service_config.trace_path);

  serve::PredictionService service(service_config);
  reactor.coalesce_key = [&service](const serve::HttpRequest& request) {
    return service.coalesce_key(request);
  };
  serve::HttpServer server(
      options, [&service](const serve::HttpRequest& request) {
        return service.handle(request);
      });
  // /healthz?ready=1 reads the server's drain flag and queue-depth SLO;
  // both outlive every request, so capturing the server by reference is
  // safe for the daemon's lifetime.
  service.set_readiness_probe([&server](std::string* reason) {
    return !server.not_ready(reason);
  });
  telemetry::set_run_info("serve", 0, server.workers());

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = handle_shutdown_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  std::printf("picpredict serve: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (flags.count("ready-file") > 0) {
    // Published atomically so a watcher never reads a half-written port.
    const std::string port_line = std::to_string(server.port()) + "\n";
    atomic_write_file(flags.at("ready-file"), port_line.data(),
                      port_line.size());
  }

  server.run();  // blocks until SIGINT/SIGTERM, then drains
  g_server = nullptr;

  // The same registry the drain manifest is built from.
  const telemetry::MetricsSnapshot drained = telemetry::registry().snapshot();
  if (telemetry_persisted) telemetry::finalize();
  std::printf("picpredict serve: drained after %llu request(s), "
              "%llu connection(s) accepted, %llu shed\n",
              static_cast<unsigned long long>(
                  aggregate_red_total(drained).count),
              static_cast<unsigned long long>(
                  drained.counter_value("serve.accepted")),
              static_cast<unsigned long long>(
                  drained.counter_value("serve.rejected_busy")));
  return 0;
}

// --- query ------------------------------------------------------------------

int cmd_query(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-')
    usage("query needs an endpoint path, e.g. /healthz");
  const std::string endpoint = argv[2];
  const auto flags = parse_flags(argc, argv, 3, {"quiet"});
  const std::string host = flag_or(flags, "host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(
      flag_int_value("port", require_flag(flags, "port")));
  const std::string body = flag_or(flags, "body", "");
  const auto repeat = static_cast<std::size_t>(
      flag_int_value("repeat", flag_or(flags, "repeat", "1")));
  const auto parallel = static_cast<std::size_t>(
      flag_int_value("parallel", flag_or(flags, "parallel", "1")));
  const auto retries = static_cast<std::size_t>(
      flag_int_value("retries", flag_or(flags, "retries", "3")));
  const long long max_backoff_ms = flag_int_value(
      "max-backoff-ms", flag_or(flags, "max-backoff-ms", "2000"));
  const long long deadline_ms =
      flag_int_value("deadline-ms", flag_or(flags, "deadline-ms", "0"));
  const bool quiet = flags.count("quiet") > 0;
  if (repeat < 1) fail_usage("--repeat must be >= 1");
  if (parallel < 1) fail_usage("--parallel must be >= 1");
  if (max_backoff_ms < 1) fail_usage("--max-backoff-ms must be >= 1");
  if (deadline_ms < 0) fail_usage("--deadline-ms must be >= 0");

  serve::HttpRequest request;
  request.method = body.empty() ? "GET" : "POST";
  request.target = endpoint;
  request.body = body;
  if (!body.empty())
    request.headers.emplace_back("Content-Type", "application/json");
  if (deadline_ms > 0)
    request.headers.emplace_back("X-Picp-Deadline-Ms",
                                 std::to_string(deadline_ms));
  const std::string host_header = host + ":" + std::to_string(port);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> busy_failures{0};  // failures that were 503s
  std::mutex print_mutex;
  const auto print_response = [&](const serve::HttpResponse& response) {
    if (quiet) return;
    std::lock_guard<std::mutex> lock(print_mutex);
    const std::string* cache = response.header("x-picp-cache");
    const std::string* degraded = response.header("x-picp-degraded");
    std::printf("%d %s%s%s%s\n", response.status,
                serve::status_reason(response.status),
                cache != nullptr ? " cache=" : "",
                cache != nullptr ? cache->c_str() : "",
                degraded != nullptr ? " degraded=stale" : "");
    if (!response.body.empty())
      std::fwrite(response.body.data(), 1, response.body.size(), stdout);
  };

  const auto worker = [&](std::size_t worker_index) {
    // One connection per worker, reused across its share of requests —
    // the closed-loop shape the daemon's keep-alive path is built for.
    // Retry state: capped exponential backoff with *full jitter* (sleep a
    // uniform draw from [0, cap]) — the spread that keeps a shed fleet of
    // clients from re-arriving in lockstep — with the server's
    // Retry-After as a floor when it sent one.
    Xoshiro256 jitter(0x9e3779b97f4a7c15ULL + worker_index);
    std::unique_ptr<serve::HttpConnection> connection;
    serve::HttpLimits limits;
    const auto backoff = [&](std::size_t attempt, long long floor_ms) {
      long long cap = 100;  // base delay, doubled per attempt
      for (std::size_t i = 0; i < attempt && cap < max_backoff_ms; ++i)
        cap *= 2;
      if (cap > max_backoff_ms) cap = max_backoff_ms;
      long long delay = static_cast<long long>(
          jitter.uniform_below(static_cast<std::uint64_t>(cap) + 1));
      if (delay < floor_ms) delay = floor_ms;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    };

    while (next.fetch_add(1) < repeat) {
      std::size_t attempt = 0;
      for (;;) {
        try {
          if (connection == nullptr)
            connection = std::make_unique<serve::HttpConnection>(
                serve::connect_tcp(host, port));
          connection->write_request(request, host_header);
          serve::HttpResponse response;
          if (!connection->read_response(response, limits))
            throw Error("server closed the connection");
          const std::string* connection_header =
              response.header("connection");
          if (connection_header != nullptr &&
              *connection_header == "close")
            connection.reset();  // reconnect before the next attempt

          if (response.status == 503 && attempt < retries) {
            // Shed by backpressure: retryable by contract. Honor the
            // server's Retry-After (seconds) as the minimum wait.
            long long floor_ms = 0;
            if (const std::string* after = response.header("retry-after")) {
              try {
                floor_ms = parse_int(*after) * 1000;
              } catch (const Error&) {
                floor_ms = 0;  // malformed header: jitter-only backoff
              }
            }
            ++attempt;
            backoff(attempt, floor_ms);
            continue;
          }
          if (response.status < 200 || response.status >= 300) {
            failures.fetch_add(1);
            if (response.status == 503) busy_failures.fetch_add(1);
          }
          print_response(response);
          break;
        } catch (const std::exception& e) {
          connection.reset();
          if (attempt < retries) {
            ++attempt;
            backoff(attempt, 0);
            continue;
          }
          failures.fetch_add(1);
          std::lock_guard<std::mutex> lock(print_mutex);
          std::fprintf(stderr, "query: %s\n", e.what());
          break;
        }
      }
    }
  };

  if (parallel == 1) {
    worker(0);
  } else {
    ThreadPool pool(parallel);
    for (std::size_t i = 0; i < parallel; ++i)
      pool.submit([&worker, i] { worker(i); });
    pool.wait_idle();
  }
  const std::size_t failed = failures.load();
  if (failed == 0) return 0;
  // Exit 3: the server was healthy but busy — every failure was a 503
  // that outlived the retry budget. Scripts can sleep-and-rerun on it.
  return failed == busy_failures.load() ? 3 : 1;
}

// --- top --------------------------------------------------------------------

/// One /metricsz scrape, parsed back into a MetricsSnapshot.
telemetry::MetricsSnapshot scrape_metrics(const std::string& host,
                                          std::uint16_t port) {
  serve::HttpConnection connection(serve::connect_tcp(host, port));
  serve::HttpRequest request;
  request.method = "GET";
  request.target = "/metricsz";
  connection.write_request(request,
                           host + ":" + std::to_string(port));
  serve::HttpResponse response;
  const serve::HttpLimits limits;
  if (!connection.read_response(response, limits))
    throw Error("server closed the connection");
  if (response.status != 200)
    throw Error("/metricsz returned " + std::to_string(response.status));
  const Json body = Json::parse(response.body);
  if (!body.is_object() || !body.has("metrics"))
    throw Error("/metricsz reply lacks a \"metrics\" object");
  return telemetry::metrics_from_json(body.at("metrics"));
}

int cmd_top(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv, 2);
  const std::string host = flag_or(flags, "host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(
      flag_int_value("port", require_flag(flags, "port")));
  const long long interval_ms = flag_int_value(
      "interval-ms", flag_or(flags, "interval-ms", "1000"));
  const long long iterations =
      flag_int_value("iterations", flag_or(flags, "iterations", "0"));
  if (interval_ms < 1) fail_usage("--interval-ms must be >= 1");
  if (iterations < 0) fail_usage("--iterations must be >= 0");

  // A terminal gets a refreshing screen; a pipe (scripts, the smoke test)
  // gets one header followed by one appended row per poll.
  const bool tty = ::isatty(::fileno(stdout)) != 0;
  const auto print_header = [&] {
    std::printf("picpredict top — %s:%u every %lld ms%s\n",
                host.c_str(), static_cast<unsigned>(port), interval_ms,
                iterations == 0 ? " (interrupt to quit)" : "");
    std::printf("%10s %9s %7s %10s %10s %10s %7s %7s %9s %10s\n", "rps",
                "inflight", "queue", "p50_us", "p95_us", "p99_us", "cache%",
                "shed", "batched", "requests");
  };

  std::uint64_t previous_requests = 0;
  std::chrono::steady_clock::time_point previous_scrape;
  for (long long i = 0; iterations == 0 || i < iterations; ++i) {
    const telemetry::MetricsSnapshot snapshot = scrape_metrics(host, port);
    const auto scraped = std::chrono::steady_clock::now();
    // Every finished request lands in exactly one RED histogram, so their
    // merged count is the daemon's request count.
    const telemetry::HistogramSnapshot red = aggregate_red_total(snapshot);
    const std::uint64_t requests = red.count;
    // Rate over the time that actually passed between scrapes. A count
    // that went down means a new daemon took the port: no rate this row.
    const double elapsed_s =
        std::chrono::duration<double>(scraped - previous_scrape).count();
    const double rps =
        i == 0 || requests < previous_requests
            ? 0.0
            : static_cast<double>(requests - previous_requests) / elapsed_s;
    previous_requests = requests;
    previous_scrape = scraped;

    // Hit% counts what X-Picp-Cache calls a hit: memory, disk and stale.
    const double hits = static_cast<double>(
        snapshot.counter_value("serve.cache.response.hits") +
        snapshot.counter_value("serve.cache.response.disk_hits") +
        snapshot.counter_value("serve.cache.response.stale_served"));
    const double misses = static_cast<double>(
        snapshot.counter_value("serve.cache.response.misses"));
    const double hit_pct =
        hits + misses > 0.0 ? 100.0 * hits / (hits + misses) : 0.0;
    const std::uint64_t shed =
        snapshot.counter_value("serve.shed_queue") +
        snapshot.counter_value("serve.rejected_busy");
    const std::uint64_t batched =
        snapshot.counter_value("serve.batch.members");

    if (tty) {
      std::printf("\x1b[2J\x1b[H");
      print_header();
    } else if (i == 0) {
      print_header();
    }
    std::printf("%10.1f %9.0f %7.0f %10.1f %10.1f %10.1f %7.1f %7llu "
                "%9llu %10llu\n",
                rps, snapshot.gauge_value("serve.inflight"),
                snapshot.gauge_value("serve.queue_depth"),
                red.quantile(0.50), red.quantile(0.95), red.quantile(0.99),
                hit_pct, static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(batched),
                static_cast<unsigned long long>(requests));
    std::fflush(stdout);
    if (iterations != 0 && i + 1 >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    // Arm before dispatch so every command is injectable; a malformed
    // PICP_FAILPOINTS spec is a runtime failure (exit 1), not silence.
    failpoint::arm_from_env();
    if (command == "simulate") return cmd_simulate(argc, argv);
    if (command == "trace") return cmd_trace(argc, argv);
    if (command == "train") return cmd_train(argc, argv);
    if (command == "workload") return cmd_workload(argc, argv);
    if (command == "predict") return cmd_predict(argc, argv);
    if (command == "extrapolate") return cmd_extrapolate(argc, argv);
    if (command == "report") return cmd_report(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "query") return cmd_query(argc, argv);
    if (command == "top") return cmd_top(argc, argv);
    usage(("unknown command: " + command).c_str());
  } catch (const std::exception& e) {
    // One-line diagnostic, never a bare stack of parser noise: the first
    // line carries the path + errno context, any hint lines follow.
    std::fprintf(stderr, "picpredict: %s\n", e.what());
    return 1;
  }
}
