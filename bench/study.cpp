#include "study.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace picp::bench {

namespace fs = std::filesystem;

StudyOptions parse_options(int argc, char** argv) {
  StudyOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--data-dir" && i + 1 < argc) {
      options.data_dir = argv[++i];
    } else if (arg == "--small") {
      options.small = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--data-dir <dir>] [--small]\n", argv[0]);
      std::exit(2);
    }
  }
  fs::create_directories(options.data_dir);
  return options;
}

SimConfig hele_shaw_config(bool small) {
  SimConfig cfg;  // defaults are the calibrated scaled case study
  cfg.bed.num_particles = small ? 8000 : 120000;
  cfg.num_iterations = small ? 2000 : 4000;
  cfg.sample_every = 50;
  cfg.num_ranks = 1044;
  cfg.mapper_kind = "bin";
  cfg.measure = false;
  // The trace producer threads its solver loop; results are bit-identical
  // for any thread count, so cached traces stay comparable across hosts.
  cfg.threads = 0;  // hardware concurrency
  // Compact (f32) trace, as in production PIC runs; the sub-micron rounding
  // is far below any mapping decision scale.
  cfg.trace_float64 = false;
  // Measurement settings tuned for microsecond-scale per-rank kernels:
  // longer windows and every second interval.
  cfg.measure_every = 2;
  cfg.measure_min_seconds = 3e-5;
  cfg.measure_max_reps = 2048;
  return cfg;
}

std::vector<Rank> paper_rank_counts() { return {1044, 2088, 4176, 8352}; }

namespace {
std::string wall_path(const StudyOptions& options, const std::string& tag) {
  return options.data_dir + "/" + tag + ".wall";
}

void record_wall(const StudyOptions& options, const std::string& tag,
                 double seconds) {
  std::ofstream out(wall_path(options, tag));
  out << seconds << '\n';
}
}  // namespace

double recorded_wall_seconds(const StudyOptions& options,
                             const std::string& tag) {
  std::ifstream in(wall_path(options, tag));
  PICP_REQUIRE(in.is_open(), "no recorded wall time for tag " + tag +
                                 " — run the producing bench first");
  double seconds = 0.0;
  in >> seconds;
  return seconds;
}

std::string ensure_trace(const StudyOptions& options, const SimConfig& config,
                         const std::string& tag) {
  const std::string path = options.data_dir + "/" + tag + ".trace";
  if (fs::exists(path) && fs::exists(wall_path(options, tag))) {
    PICP_LOG_INFO << "reusing cached trace " << path;
    return path;
  }
  PICP_LOG_INFO << "producing trace " << path << " ("
                << config.bed.num_particles << " particles, "
                << config.num_iterations << " iterations)";
  SimDriver driver(config);
  const SimResult result = driver.run(path);
  record_wall(options, tag, result.wall_seconds - result.measure_seconds);
  return path;
}

std::string ensure_timings(const StudyOptions& options,
                           const SimConfig& config, const std::string& tag) {
  const std::string path = options.data_dir + "/" + tag + ".timings.csv";
  if (fs::exists(path)) {
    PICP_LOG_INFO << "reusing cached timings " << path;
    return path;
  }
  SimConfig measured = config;
  measured.measure = true;
  PICP_LOG_INFO << "instrumented run for " << tag << " (R="
                << measured.num_ranks << ")";
  SimDriver driver(measured);
  const SimResult result = driver.run();
  result.timings.save_csv(path);
  record_wall(options, tag, result.wall_seconds - result.measure_seconds);
  return path;
}

namespace {
ModelSet train_and_cache(const StudyOptions& options,
                         const KernelTimings& timings, const std::string& tag,
                         const ModelGenConfig& config) {
  const std::string path = options.data_dir + "/" + tag + ".models.txt";
  TrainReport report;
  const ModelSet models = train_models(timings, config, &report);
  for (const auto& fit : report.kernels)
    PICP_LOG_INFO << "model " << fit.kernel << " (" << fit.rows
                  << " rows, train MAPE " << fit.train_mape
                  << "%): " << fit.formula;
  models.save(path);
  return models;
}
}  // namespace

ModelSet ensure_models(const StudyOptions& options,
                       const std::string& timings_path,
                       const std::string& tag,
                       const ModelGenConfig& config) {
  const std::string path = options.data_dir + "/" + tag + ".models.txt";
  if (fs::exists(path)) {
    PICP_LOG_INFO << "reusing cached models " << path;
    return ModelSet::load(path);
  }
  return train_and_cache(options, KernelTimings::load_csv(timings_path), tag,
                         config);
}

ModelSet ensure_models_merged(const StudyOptions& options,
                              const std::vector<std::string>& timing_paths,
                              const std::string& tag,
                              const ModelGenConfig& config) {
  const std::string path = options.data_dir + "/" + tag + ".models.txt";
  if (fs::exists(path)) {
    PICP_LOG_INFO << "reusing cached models " << path;
    return ModelSet::load(path);
  }
  KernelTimings merged;
  for (const std::string& timings_path : timing_paths)
    merged.append(KernelTimings::load_csv(timings_path));
  return train_and_cache(options, merged, tag, config);
}

}  // namespace picp::bench
