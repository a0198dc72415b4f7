#include "picsim/sim_driver.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "picsim/checkpoint.hpp"
#include "support/workload_gtest.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_salvage.hpp"
#include "util/error.hpp"

namespace picp {
namespace {

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.nelx = 8;
  cfg.nely = 8;
  cfg.nelz = 16;
  cfg.bed.num_particles = 500;
  cfg.num_iterations = 200;
  cfg.sample_every = 50;
  cfg.num_ranks = 16;
  cfg.filter_size = 0.08;
  cfg.measure = false;
  return cfg;
}

TEST(SimDriver, ProducesExpectedSampleCount) {
  const std::string path = testing::TempDir() + "/picp_sim_trace.bin";
  SimDriver driver(tiny_config());
  const SimResult result = driver.run(path);
  EXPECT_EQ(result.trace_samples, 4u);  // iterations 0, 50, 100, 150
  EXPECT_EQ(result.actual.num_intervals(), 4u);
  TraceReader reader(path);
  EXPECT_EQ(reader.num_samples(), 4u);
  EXPECT_EQ(reader.num_particles(), 500u);
  std::remove(path.c_str());
}

TEST(SimDriver, ActualWorkloadConservesParticles) {
  SimDriver driver(tiny_config());
  const SimResult result = driver.run();
  for (std::size_t t = 0; t < result.actual.num_intervals(); ++t)
    EXPECT_EQ(result.actual.comp_real.interval_total(t), 500);
}

TEST(SimDriver, ParticlesMoveDuringRun) {
  const std::string path = testing::TempDir() + "/picp_sim_move.bin";
  SimConfig cfg = tiny_config();
  cfg.num_iterations = 3000;
  cfg.sample_every = 1500;
  SimDriver driver(cfg);
  driver.run(path);
  const auto samples = read_full_trace(path);
  ASSERT_EQ(samples.size(), 2u);
  // The blast must displace the bed's center of mass upward.
  const auto mean_z = [](const TraceSample& s) {
    double z = 0.0;
    for (const Vec3& p : s.positions) z += p.z;
    return z / static_cast<double>(s.positions.size());
  };
  EXPECT_GT(mean_z(samples[1]), mean_z(samples[0]) + 1e-3);
  std::remove(path.c_str());
}

TEST(SimDriver, DeterministicForSeed) {
  const std::string path_a = testing::TempDir() + "/picp_sim_a.bin";
  const std::string path_b = testing::TempDir() + "/picp_sim_b.bin";
  SimDriver(tiny_config()).run(path_a);
  SimDriver(tiny_config()).run(path_b);
  const auto a = read_full_trace(path_a);
  const auto b = read_full_trace(path_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s)
    for (std::size_t i = 0; i < a[s].positions.size(); ++i)
      EXPECT_EQ(a[s].positions[i], b[s].positions[i]) << s << ":" << i;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(SimDriver, ThreadCountInvariant) {
  // A scaled-down hele_shaw_small: enough particles to split the driver's
  // per-interval builds (two grains of 2048) and its accounting's ghost
  // search (grain 256) over the pool, collisions on so the chunked grid
  // rebuild runs every iteration, measurement on so the chunked rank/ghost
  // builds run too. Every output must be bit-identical across thread
  // counts.
  SimConfig cfg;
  cfg.nelx = 8;
  cfg.nely = 8;
  cfg.nelz = 16;
  cfg.bed.num_particles = 6000;
  cfg.num_iterations = 120;
  cfg.sample_every = 40;
  cfg.num_ranks = 16;
  cfg.filter_size = 0.08;
  cfg.physics.collision_radius = 0.01;
  cfg.measure = true;
  cfg.measure_min_seconds = 1e-6;
  cfg.measure_max_reps = 2;

  const std::string path_1 = testing::TempDir() + "/picp_sim_t1.bin";
  const std::string path_4 = testing::TempDir() + "/picp_sim_t4.bin";
  cfg.threads = 1;
  SimDriver serial(cfg);
  ASSERT_EQ(serial.threads(), 1u);
  const SimResult a = serial.run(path_1);
  cfg.threads = 4;
  SimDriver threaded(cfg);
  ASSERT_EQ(threaded.threads(), 4u);
  const SimResult b = threaded.run(path_4);

  // Final particle state: bitwise equal positions and velocities.
  ASSERT_EQ(a.final_positions.size(), b.final_positions.size());
  for (std::size_t i = 0; i < a.final_positions.size(); ++i) {
    EXPECT_EQ(a.final_positions[i], b.final_positions[i]) << i;
    EXPECT_EQ(a.final_velocities[i], b.final_velocities[i]) << i;
  }
  // The traces must be byte-for-byte identical files.
  EXPECT_EQ(file_bytes(path_1), file_bytes(path_4));
  // In-situ workload accounting, which runs on the pool, agrees entry by
  // entry and transfer by transfer.
  ASSERT_EQ(a.actual.num_intervals(), b.actual.num_intervals());
  ASSERT_GT(a.actual.comp_ghost.interval_total(0), 0);
  EXPECT_EQ(a.actual.iterations, b.actual.iterations);
  EXPECT_EQ(a.actual.partitions_per_interval,
            b.actual.partitions_per_interval);
  expect_same_workload(a.actual, b.actual, "1 vs 4 threads");
  // Measurement visited the same (kernel, rank, interval) workloads.
  ASSERT_EQ(a.timings.size(), b.timings.size());
  for (std::size_t k = 0; k < a.timings.size(); ++k) {
    const TimingRecord& ra = a.timings.records()[k];
    const TimingRecord& rb = b.timings.records()[k];
    EXPECT_EQ(ra.rank, rb.rank);
    EXPECT_EQ(ra.kernel, rb.kernel);
    EXPECT_EQ(ra.interval, rb.interval);
    EXPECT_EQ(ra.np, rb.np);
    EXPECT_EQ(ra.ngp, rb.ngp);
    EXPECT_EQ(ra.nmove, rb.nmove);
  }
  std::remove(path_1.c_str());
  std::remove(path_4.c_str());
}

TEST(SimDriver, ThreadsZeroSelectsHardwareConcurrency) {
  SimConfig cfg = tiny_config();
  cfg.threads = 0;
  SimDriver driver(cfg);
  EXPECT_GE(driver.threads(), 1u);
  const SimResult result = driver.run();
  EXPECT_EQ(result.actual.num_intervals(), 4u);
}

TEST(SimDriver, MeasurementProducesRecordsForActiveRanks) {
  SimConfig cfg = tiny_config();
  // 1000 particles on 4 threads split the accounting's ghost search (grain
  // 256) into 3 chunks, whose lists measurement reads.
  cfg.bed.num_particles = 1000;
  cfg.threads = 4;
  cfg.measure = true;
  cfg.measure_min_seconds = 1e-6;  // keep the test fast
  cfg.measure_max_reps = 4;
  SimDriver driver(cfg);
  const SimResult result = driver.run();
  EXPECT_FALSE(result.timings.empty());
  EXPECT_GT(result.measure_seconds, 0.0);
  // Measurement reads the accounting's owner and ghost lists, so every
  // record's np matches the actual computation matrix, and every particle
  // kernel's ngp the ghost matrix.
  for (const TimingRecord& rec : result.timings.records()) {
    EXPECT_GE(rec.seconds, 0.0);
    EXPECT_EQ(static_cast<std::int64_t>(rec.np),
              result.actual.comp_real.at(rec.rank, rec.interval))
        << kernel_name(rec.kernel) << " r=" << rec.rank
        << " t=" << rec.interval;
    if (rec.kernel != Kernel::kFluid) {
      EXPECT_EQ(static_cast<std::int64_t>(rec.ngp),
                result.actual.comp_ghost.at(rec.rank, rec.interval))
          << kernel_name(rec.kernel) << " r=" << rec.rank
          << " t=" << rec.interval;
    }
    EXPECT_EQ(rec.filter, cfg.filter_size);
  }
  ASSERT_GT(result.actual.comp_ghost.interval_total(0), 0);
  // All kernels appear (fluid is measured once, at the first interval).
  for (int k = 0; k < kNumKernels; ++k)
    EXPECT_FALSE(result.timings.for_kernel(static_cast<Kernel>(k)).empty())
        << kernel_name(static_cast<Kernel>(k));
  for (const TimingRecord& rec : result.timings.for_kernel(Kernel::kFluid)) {
    EXPECT_EQ(rec.interval, 0u);
    EXPECT_GT(rec.nel, 0.0);
  }
}

TEST(SimDriver, MeasureEverySkipsIntervals) {
  SimConfig cfg = tiny_config();
  cfg.measure = true;
  cfg.measure_every = 2;
  cfg.measure_min_seconds = 1e-6;
  cfg.measure_max_reps = 2;
  SimDriver driver(cfg);
  const SimResult result = driver.run();
  for (const TimingRecord& rec : result.timings.records())
    EXPECT_EQ(rec.interval % 2, 0u);
  EXPECT_FALSE(result.timings.for_kernel(Kernel::kFluid).empty());
}

TEST(SimDriver, CollisionsEnabledStillConserves) {
  SimConfig cfg = tiny_config();
  cfg.physics.collision_radius = 0.01;
  SimDriver driver(cfg);
  const SimResult result = driver.run();
  for (std::size_t t = 0; t < result.actual.num_intervals(); ++t)
    EXPECT_EQ(result.actual.comp_real.interval_total(t), 500);
}

TEST(SimDriver, ElementMapperRunWorks) {
  SimConfig cfg = tiny_config();
  cfg.mapper_kind = "element";
  SimDriver driver(cfg);
  const SimResult result = driver.run();
  // Element mapping leaves partitions at the rank count.
  for (const std::int64_t p : result.actual.partitions_per_interval)
    EXPECT_EQ(p, 16);
}

TEST(SimDriver, BinPartitionsBoundedByRanks) {
  SimDriver driver(tiny_config());
  const SimResult result = driver.run();
  for (const std::int64_t p : result.actual.partitions_per_interval) {
    EXPECT_GE(p, 1);
    EXPECT_LE(p, 16);
  }
}

/// Whether `timings` holds a migrate record at interval t.
bool has_migrate_at(const KernelTimings& timings, std::uint32_t t) {
  for (const TimingRecord& rec : timings.for_kernel(Kernel::kMigrate))
    if (rec.interval == t) return true;
  return false;
}

TEST(SimDriver, CheckpointResumeProducesBitIdenticalTrace) {
  // Kill-resilience drill: run A straight through; run B is "killed" after
  // 110 iterations (last checkpoint at 90) and resumed. The resumed trace
  // must match A byte for byte, including the sealed footer digest.
  // Measurement is on, so the resumed run also measures its first interval
  // without the previous interval's owners.
  SimConfig cfg = tiny_config();
  cfg.checkpoint_every = 30;
  cfg.measure = true;
  cfg.measure_min_seconds = 1e-6;
  cfg.measure_max_reps = 2;

  const std::string full_path = testing::TempDir() + "/picp_ck_full.bin";
  const SimResult full = SimDriver(cfg).run(full_path);
  EXPECT_TRUE(has_migrate_at(full.timings, 2));

  const std::string path = testing::TempDir() + "/picp_ck_resume.bin";
  RunOptions crash;
  crash.abort_after_iterations = 110;
  const SimResult killed = SimDriver(cfg).run(path, crash);
  EXPECT_TRUE(killed.aborted);
  // The crash left the unsealed partial plus a checkpoint at iteration 90
  // with samples 0, 50 (iteration 100's sample is in the .part but after
  // the checkpointed offset — resume truncates it away and rewrites it).
  EXPECT_FALSE(std::ifstream(path).is_open());
  const SimCheckpoint ckpt = SimCheckpoint::load(path + ".ckpt");
  EXPECT_EQ(ckpt.next_iteration, 90);
  EXPECT_EQ(ckpt.trace_samples, 2u);
  const SalvageReport partial = scan_trace(path + ".part");
  EXPECT_EQ(partial.valid_samples, 3u);  // samples 0, 50, 100 all complete
  EXPECT_FALSE(partial.sealed);

  RunOptions resume;
  resume.resume = true;
  const SimResult resumed = SimDriver(cfg).run(path, resume);
  EXPECT_EQ(resumed.start_iteration, 90);
  EXPECT_FALSE(resumed.aborted);
  EXPECT_EQ(resumed.trace_samples, 4u);
  // The first resumed interval (iteration 100) has no previous owners, so
  // migration is timed only from the next one on.
  EXPECT_FALSE(has_migrate_at(resumed.timings, 2));
  EXPECT_TRUE(has_migrate_at(resumed.timings, 3));

  EXPECT_EQ(file_bytes(path), file_bytes(full_path));
  EXPECT_TRUE(scan_trace(path).intact());
  // Success removes the checkpoint; the .part was renamed over the final.
  EXPECT_FALSE(std::ifstream(path + ".ckpt").is_open());
  EXPECT_FALSE(std::ifstream(path + ".part").is_open());
  std::remove(full_path.c_str());
  std::remove(path.c_str());
}

TEST(SimDriver, ResumeWithDifferentThreadCountStillBitIdentical) {
  SimConfig cfg = tiny_config();
  cfg.checkpoint_every = 50;

  const std::string full_path = testing::TempDir() + "/picp_ck_tfull.bin";
  SimDriver(cfg).run(full_path);

  const std::string path = testing::TempDir() + "/picp_ck_tmix.bin";
  RunOptions crash;
  crash.abort_after_iterations = 100;
  SimDriver(cfg).run(path, crash);
  // Threads are excluded from the config fingerprint (outputs are
  // bit-identical by design), so resuming threaded is legal.
  cfg.threads = 4;
  RunOptions resume;
  resume.resume = true;
  const SimResult resumed = SimDriver(cfg).run(path, resume);
  EXPECT_EQ(resumed.start_iteration, 100);
  EXPECT_EQ(file_bytes(path), file_bytes(full_path));
  std::remove(full_path.c_str());
  std::remove(path.c_str());
}

TEST(SimDriver, ResumeRejectsConfigMismatch) {
  SimConfig cfg = tiny_config();
  cfg.checkpoint_every = 50;
  const std::string path = testing::TempDir() + "/picp_ck_bad.bin";
  RunOptions crash;
  crash.abort_after_iterations = 100;
  SimDriver(cfg).run(path, crash);

  SimConfig other = cfg;
  other.physics.dt *= 2.0;  // trajectory-shaping change
  RunOptions resume;
  resume.resume = true;
  EXPECT_THROW(SimDriver(other).run(path, resume), CorruptInputError);
  std::remove((path + ".part").c_str());
  std::remove((path + ".ckpt").c_str());
}

TEST(SimDriver, ResumeWithoutCheckpointThrows) {
  SimConfig cfg = tiny_config();
  RunOptions resume;
  resume.resume = true;
  EXPECT_THROW(
      SimDriver(cfg).run(testing::TempDir() + "/picp_ck_none.bin", resume),
      Error);
}

TEST(SimDriver, ConfigFingerprintIgnoresNonTrajectoryKnobs) {
  const SimConfig base = tiny_config();
  SimConfig changed = base;
  changed.threads = 8;
  changed.measure = true;
  changed.mapper_kind = "element";
  changed.num_ranks = 4;
  EXPECT_EQ(sim_config_fingerprint(base), sim_config_fingerprint(changed));
  changed = base;
  changed.bed.seed += 1;
  EXPECT_NE(sim_config_fingerprint(base), sim_config_fingerprint(changed));
  changed = base;
  changed.sample_every = 25;
  EXPECT_NE(sim_config_fingerprint(base), sim_config_fingerprint(changed));
}

TEST(SimConfigTest, ValidateRejectsBadValues) {
  SimConfig cfg = tiny_config();
  cfg.sample_every = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = tiny_config();
  cfg.filter_size = -1.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = tiny_config();
  cfg.num_ranks = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(SimConfigTest, FromConfigAppliesOverrides) {
  const auto ini = Config::from_string(
      "[mesh]\nnelx = 4\nnely = 4\nnelz = 8\n"
      "[bed]\nnum_particles = 123\n"
      "[run]\nnum_iterations = 10\nsample_every = 5\nthreads = 3\n"
      "[mapping]\nmapper = element\nnum_ranks = 3\nfilter_size = 0.07\n"
      "[measure]\nenabled = false\n");
  const SimConfig cfg = SimConfig::from_config(ini);
  EXPECT_EQ(cfg.nelx, 4);
  EXPECT_EQ(cfg.bed.num_particles, 123u);
  EXPECT_EQ(cfg.num_iterations, 10);
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(cfg.mapper_kind, "element");
  EXPECT_EQ(cfg.num_ranks, 3);
  EXPECT_DOUBLE_EQ(cfg.filter_size, 0.07);
  EXPECT_EQ(cfg.num_samples(), 2);
}

}  // namespace
}  // namespace picp
