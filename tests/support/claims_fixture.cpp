#include "support/claims_fixture.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/trainer.hpp"
#include "picsim/checkpoint.hpp"
#include "picsim/sim_driver.hpp"
#include "support/fixture_cache.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace picp::testing {

namespace fs = std::filesystem;

namespace {

// Bump to invalidate every cached claims artifact when the fixture recipe
// (not the SimConfig itself) changes.
constexpr std::uint32_t kFixtureSchema = 1;

}  // namespace

SimConfig claims_config() {
  SimConfig cfg;
  cfg.nelx = 16;
  cfg.nely = 16;
  cfg.nelz = 32;
  cfg.points_per_dim = 4;
  cfg.bed.num_particles = 4000;
  cfg.num_iterations = 2400;
  cfg.sample_every = 40;  // 60 intervals
  cfg.trace_float64 = false;
  cfg.threads = 1;
  cfg.num_ranks = 96;
  cfg.filter_size = 0.05;
  cfg.mapper_kind = "bin";
  cfg.measure = true;
  cfg.measure_every = 2;
  cfg.measure_min_seconds = 3e-5;
  cfg.measure_max_reps = 2048;
  return cfg;
}

std::vector<Rank> claims_rank_counts() { return {96, 192, 384, 768}; }

SpectralMesh claims_mesh() {
  const SimConfig cfg = claims_config();
  return SpectralMesh(cfg.domain, cfg.nelx, cfg.nely, cfg.nelz,
                      cfg.points_per_dim);
}

std::vector<double> claims_filter_sweep() {
  return {0.04, 0.05, 0.06, 0.08};
}

namespace {

std::uint64_t fixture_fingerprint(const SimConfig& cfg) {
  Crc32c crc;
  crc.update_pod(sim_config_fingerprint(cfg));
  crc.update_pod(kFixtureSchema);
  crc.update_pod(cfg.num_ranks);
  crc.update_pod(cfg.measure ? 1 : 0);
  crc.update_pod(cfg.measure_every);
  crc.update_pod(cfg.measure_min_seconds);
  crc.update_pod(cfg.measure_max_reps);
  return crc.value();
}

void atomic_write_text(const std::string& path, const std::string& text) {
  atomic_write_file(path, text.data(), text.size());
}

void publish(const std::string& tmp, const std::string& final_path) {
  fs::rename(tmp, final_path);
}

// One measured run produces the shared trace plus two sidecars: the base
// timings CSV and the recorded application wall time (wall minus the
// measurement overhead, as in bench/study.cpp). The trace file itself is
// renamed into place last, so its presence implies the sidecars exist.
void generate_trace_bundle(const std::string& trace_path) {
  const SimConfig cfg = claims_config();
  SimDriver driver(cfg);
  const std::string building = trace_path + ".building";
  const SimResult result = driver.run(building);
  const std::string timings_tmp = trace_path + ".timings.csv.tmp";
  result.timings.save_csv(timings_tmp);
  publish(timings_tmp, trace_path + ".timings.csv");
  std::ostringstream wall;
  wall << (result.wall_seconds - result.measure_seconds) << '\n';
  atomic_write_text(trace_path + ".wall", wall.str());
  publish(building, trace_path);
}

std::string generate_timings(FixtureCache& cache, Rank ranks) {
  SimConfig cfg = claims_config();
  cfg.num_ranks = ranks;
  return cache.ensure(
      "claims-timings-R" + std::to_string(ranks), fixture_fingerprint(cfg),
      ".csv", [&cfg](const std::string& path) {
        SimDriver driver(cfg);
        const SimResult result = driver.run();
        const std::string tmp = path + ".tmp";
        result.timings.save_csv(tmp);
        publish(tmp, path);
      });
}

double read_wall_seconds(const std::string& path) {
  std::ifstream in(path);
  PICP_REQUIRE(in.is_open(), "missing claims wall sidecar " + path);
  double seconds = 0.0;
  in >> seconds;
  return seconds;
}

ClaimsFixture build_fixture() {
  FixtureCache cache;
  ClaimsFixture fixture;

  const SimConfig base = claims_config();
  fixture.trace_path = cache.ensure("claims-trace",
                                    fixture_fingerprint(base), ".trace",
                                    generate_trace_bundle);
  fixture.timings_base = fixture.trace_path + ".timings.csv";
  fixture.app_seconds = read_wall_seconds(fixture.trace_path + ".wall");

  const std::vector<Rank> ladder = claims_rank_counts();
  fixture.timings_mid = generate_timings(cache, ladder[1]);
  fixture.timings_top = generate_timings(cache, ladder[3]);

  // Models: fast deterministic linear fits on the merged base+top timings
  // (the paper trains on the extreme configurations and predicts the
  // intermediates).
  Crc32c model_crc;
  model_crc.update_pod(fixture_fingerprint(base));
  SimConfig top = base;
  top.num_ranks = ladder[3];
  model_crc.update_pod(fixture_fingerprint(top));
  const std::string timings_base_path = fixture.timings_base;
  const std::string timings_top_path = fixture.timings_top;
  fixture.models_path = cache.ensure(
      "claims-models", model_crc.value(), ".txt",
      [&timings_base_path, &timings_top_path](const std::string& path) {
        KernelTimings merged;
        for (const std::string& source :
             {timings_base_path, timings_top_path})
          merged.append(KernelTimings::load_csv(source));
        ModelGenConfig mg;
        mg.method = FitMethod::kLinear;
        const ModelSet models = train_models(merged, mg);
        const std::string tmp = path + ".tmp";
        models.save(tmp);
        publish(tmp, path);
      });
  return fixture;
}

}  // namespace

const ClaimsFixture& claims_fixture() {
  static const ClaimsFixture fixture = build_fixture();
  return fixture;
}

std::uint64_t claims_trace_fingerprint() {
  return fixture_fingerprint(claims_config());
}

}  // namespace picp::testing
