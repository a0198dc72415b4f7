// Integration: the Dynamic Workload Generator replaying a trace must
// reproduce the application's own workload accounting exactly — this is the
// validation the paper performed for Fig 5 ("we also have validated our
// predictions ... by comparing the output of our Dynamic Workload Generator
// with actual workload").

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "mapping/mapper.hpp"
#include "picsim/sim_driver.hpp"
#include "trace/trace_reader.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace picp {
namespace {

SimConfig tiny_config(const std::string& mapper) {
  SimConfig cfg;
  cfg.nelx = 8;
  cfg.nely = 8;
  cfg.nelz = 16;
  cfg.bed.num_particles = 800;
  cfg.num_iterations = 400;
  cfg.sample_every = 50;
  cfg.num_ranks = 24;
  cfg.filter_size = 0.08;
  cfg.mapper_kind = mapper;
  cfg.measure = false;
  cfg.trace_float64 = true;  // exact replay requires full precision
  return cfg;
}

class GeneratorReplay : public testing::TestWithParam<std::string> {};

TEST_P(GeneratorReplay, ReproducesActualWorkloadExactly) {
  const std::string path = testing::TempDir() + "/picp_replay_" +
                           GetParam() + ".bin";
  // The application's accounting splits its ghost search over 4 threads
  // (800 particles, grain 256: 3 chunks). The replay runs inline, and on a
  // 4-worker pool, where each next interval is read and mapped beside the
  // current one's accounting.
  SimConfig cfg = tiny_config(GetParam());
  cfg.threads = 4;
  SimDriver driver(cfg);
  const SimResult app = driver.run(path);

  ThreadPool pool(4);
  for (ThreadPool* replay_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string what =
        GetParam() + (replay_pool == nullptr ? " inline" : " pooled");
    const auto mapper = make_mapper(cfg.mapper_kind, driver.mesh(),
                                    driver.partition(), cfg.filter_size);
    WorkloadParams params;
    params.ghost_radius = cfg.filter_size;
    WorkloadGenerator generator(driver.mesh(), driver.partition(), *mapper,
                                params, replay_pool);
    TraceReader reader(path);
    const WorkloadResult replay = generator.generate(reader);

    ASSERT_EQ(replay.num_intervals(), app.actual.num_intervals()) << what;
    for (std::size_t t = 0; t < replay.num_intervals(); ++t) {
      for (Rank r = 0; r < cfg.num_ranks; ++r) {
        EXPECT_EQ(replay.comp_real.at(r, t), app.actual.comp_real.at(r, t))
            << what << " real r=" << r << " t=" << t;
        EXPECT_EQ(replay.comp_ghost.at(r, t), app.actual.comp_ghost.at(r, t))
            << what << " ghost r=" << r << " t=" << t;
      }
      EXPECT_EQ(replay.comm_real.interval_volume(t),
                app.actual.comm_real.interval_volume(t))
          << what;
      EXPECT_EQ(replay.comm_ghost.interval_volume(t),
                app.actual.comm_ghost.interval_volume(t))
          << what;
      EXPECT_EQ(replay.partitions_per_interval[t],
                app.actual.partitions_per_interval[t])
          << what;
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Mappers, GeneratorReplay,
                         testing::Values("element", "bin", "hilbert"));

TEST(GeneratorScalability, SingleTraceServesManyRankCounts) {
  // The paper's core property (§II-D): particle movement is independent of
  // the processor count, so one trace predicts workload for any R.
  const std::string path = testing::TempDir() + "/picp_multi_r.bin";
  const SimConfig cfg = tiny_config("bin");
  SimDriver driver(cfg);
  driver.run(path);

  for (const Rank ranks : {4, 24, 96}) {
    const MeshPartition partition = rcb_partition(driver.mesh(), ranks);
    const auto mapper = make_mapper("bin", driver.mesh(), partition,
                                    cfg.filter_size);
    WorkloadParams params;
    params.ghost_radius = cfg.filter_size;
    WorkloadGenerator generator(driver.mesh(), partition, *mapper, params);
    TraceReader reader(path);
    const WorkloadResult result = generator.generate(reader);
    EXPECT_EQ(result.num_ranks, ranks);
    for (std::size_t t = 0; t < result.num_intervals(); ++t)
      EXPECT_EQ(result.comp_real.interval_total(t), 800);
  }
  std::remove(path.c_str());
}

TEST(GeneratorScalability, PeakWorkloadNonIncreasingInRanks) {
  // More processors can only spread a fixed particle set thinner (bin
  // mapping): the global peak must be non-increasing in R.
  const std::string path = testing::TempDir() + "/picp_peak_r.bin";
  const SimConfig cfg = tiny_config("bin");
  SimDriver driver(cfg);
  driver.run(path);

  std::int64_t prev_peak = std::numeric_limits<std::int64_t>::max();
  for (const Rank ranks : {4, 16, 64}) {
    const MeshPartition partition = rcb_partition(driver.mesh(), ranks);
    const auto mapper = make_mapper("bin", driver.mesh(), partition,
                                    cfg.filter_size);
    WorkloadParams params;
    params.ghost_radius = cfg.filter_size;
    params.compute_ghosts = false;
    params.compute_comm = false;
    WorkloadGenerator generator(driver.mesh(), partition, *mapper, params);
    TraceReader reader(path);
    const WorkloadResult result = generator.generate(reader);
    const std::int64_t peak = result.comp_real.global_max();
    EXPECT_LE(peak, prev_peak) << "ranks=" << ranks;
    prev_peak = peak;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace picp
