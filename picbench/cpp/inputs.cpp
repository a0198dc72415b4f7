// Seeded input generation. Everything the program sees is derived from the
// benchmark seed: the particle traces (picsim bed seed) and the performance
// models (a linear fit on a small instrumented picsim run).

#include <algorithm>
#include <array>
#include <tuple>
#include <cstdio>
#include <filesystem>

#include "core/trainer.hpp"
#include "picbench.hpp"
#include "picsim/sim_driver.hpp"
#include "study.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace picbench {

namespace fs = std::filesystem;

namespace {

/// Independent seed streams per input, so changing one input's recipe
/// leaves the others untouched.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return picp::splitmix64(state);
}

/// The case-study configuration of bench/study.hpp at the benchmark's
/// scale: same physics, mesh and sampling, fewer particles and iterations.
picp::SimConfig case_study(std::size_t particles, std::int64_t iterations,
                           std::uint64_t bed_seed) {
  picp::SimConfig cfg = picp::bench::hele_shaw_config(false);
  cfg.bed.num_particles = particles;
  cfg.bed.seed = bed_seed;
  cfg.num_iterations = iterations;
  cfg.threads = cores();  // traces are bit-identical for any thread count
  return cfg;
}

void write_trace(const picp::SimConfig& cfg, const std::string& path) {
  picp::SimDriver driver(cfg);
  driver.run(path);
}

/// Models: the rows of a small instrumented run, fitted with the Model
/// Generator's linear method. The rows keep the run's recorded workload
/// features; their times come from a seeded per-kernel cost law instead of
/// the wall clock, because measured times differ between hosts and runs
/// and every output of a seed must be reproducible (the digest check).
void write_models(std::uint64_t seed, const std::string& path) {
  picp::SimConfig cfg = case_study(4000, 300, derive_seed(seed, 3));
  cfg.num_ranks = 64;
  cfg.measure = true;
  cfg.measure_every = 1;
  cfg.measure_min_seconds = 1e-7;
  cfg.measure_max_reps = 1;
  picp::SimDriver driver(cfg);
  const picp::KernelTimings measured = driver.run().timings;
  // Fix the row order, so the fit's sums run in the same order on any host.
  std::vector<picp::TimingRecord> rows(measured.records().begin(),
                                       measured.records().end());
  const auto key = [](const picp::TimingRecord& r) {
    return std::tuple(r.kernel, r.interval, r.rank);
  };
  std::sort(rows.begin(), rows.end(),
            [&key](const auto& a, const auto& b) { return key(a) < key(b); });

  picp::Xoshiro256 rng(derive_seed(seed, 4));
  // Per-kernel cost per unit of each feature (seconds), drawn once.
  struct Law {
    double base, np, ngp, nmove, nel;
  };
  std::array<Law, picp::kNumKernels> laws{};
  for (Law& law : laws) {
    law.base = rng.uniform(0.5e-6, 2e-6);
    law.np = rng.uniform(20e-9, 90e-9);
    law.ngp = rng.uniform(30e-9, 90e-9);
    law.nmove = rng.uniform(50e-9, 150e-9);
    law.nel = rng.uniform(0.5e-6, 2e-6);
  }
  picp::KernelTimings timings;
  for (picp::TimingRecord rec : rows) {
    const Law& law = laws[static_cast<std::size_t>(rec.kernel)];
    double cost = law.base + law.np * rec.np;
    switch (rec.kernel) {
      case picp::Kernel::kProject:
      case picp::Kernel::kCreateGhost:
        cost += law.ngp * rec.ngp;
        break;
      case picp::Kernel::kMigrate:
        cost = law.base + 0.1 * law.np * rec.np + law.nmove * rec.nmove;
        break;
      case picp::Kernel::kFluid:
        cost = law.base + law.nel * rec.nel;
        break;
      default:
        break;
    }
    rec.seconds = cost * rng.uniform(0.95, 1.05);  // measurement scatter
    timings.add(rec);
  }
  picp::ModelGenConfig fit;
  fit.method = picp::FitMethod::kLinear;
  picp::train_models(timings, fit).save(path);
}

}  // namespace

Inputs input_paths(const std::string& dir) {
  return {dir + "/trace", dir + "/models.txt"};
}

void generate_inputs(std::uint64_t seed, const std::string& dir,
                     const std::string& kind) {
  PICP_REQUIRE(kind == "offline" || kind == "serve",
               "input kind must be offline or serve, got " + kind);
  fs::create_directories(dir);
  const Inputs paths = input_paths(dir);
  picp::Stopwatch watch;
  write_models(seed, paths.models);
  if (kind == "offline") {
    // The case-study trace, 20k particles sampled 40 times.
    write_trace(case_study(20000, 2000, derive_seed(seed, 1)), paths.trace);
  } else {
    // A smaller trace, so one cold miss costs tens of milliseconds.
    write_trace(case_study(4000, 1000, derive_seed(seed, 2)), paths.trace);
  }
  std::fprintf(stderr, "picbench: %s inputs for seed %llu made in %.2f s\n",
               kind.c_str(), static_cast<unsigned long long>(seed),
               watch.seconds());
}

}  // namespace picbench
