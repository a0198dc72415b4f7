#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "mapping/bin_mapper.hpp"
#include "mapping/element_mapper.hpp"
#include "support/workload_gtest.hpp"
#include "trace/trace_writer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/ghost_finder.hpp"

namespace picp {
namespace {

struct World {
  SpectralMesh mesh{Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 8, 8, 8, 3};
  MeshPartition partition{rcb_partition(mesh, 8)};
};

std::vector<TraceSample> drifting_cloud(std::size_t np, std::size_t samples,
                                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Vec3> pos(np);
  for (auto& p : pos)
    p = Vec3(rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4),
             rng.uniform(0.05, 0.4));
  std::vector<TraceSample> out(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    out[s].iteration = s * 10;
    out[s].positions = pos;
    // Drift particles so some cross element/rank boundaries each interval.
    for (auto& p : pos) {
      p.x = std::min(p.x + 0.03, 0.95);
      p.y = std::min(p.y + 0.02, 0.95);
      p.z = std::min(p.z + 0.04, 0.95);
    }
  }
  return out;
}

WorkloadParams default_params() {
  WorkloadParams params;
  params.ghost_radius = 0.05;
  return params;
}

TEST(WorkloadGenerator, RealLoadConservesParticles) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadGenerator gen(w.mesh, w.partition, mapper, default_params());
  const auto samples = drifting_cloud(800, 6, 1);
  const WorkloadResult result = gen.generate(samples);
  ASSERT_EQ(result.num_intervals(), 6u);
  for (std::size_t t = 0; t < 6; ++t)
    EXPECT_EQ(result.comp_real.interval_total(t), 800);
}

TEST(WorkloadGenerator, IterationsRecorded) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadGenerator gen(w.mesh, w.partition, mapper, default_params());
  const auto samples = drifting_cloud(100, 4, 2);
  const WorkloadResult result = gen.generate(samples);
  ASSERT_EQ(result.iterations.size(), 4u);
  EXPECT_EQ(result.iterations[0], 0u);
  EXPECT_EQ(result.iterations[3], 30u);
}

// The fundamental flow-conservation property tying P_comp to P_comm:
// comp[r][t] - comp[r][t-1] == inflow(r, t) - outflow(r, t).
TEST(WorkloadGenerator, CommMatrixConsistentWithCompDeltas) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadGenerator gen(w.mesh, w.partition, mapper, default_params());
  const auto samples = drifting_cloud(1200, 8, 3);
  const WorkloadResult result = gen.generate(samples);
  bool any_movement = false;
  for (std::size_t t = 1; t < result.num_intervals(); ++t) {
    if (result.comm_real.interval_volume(t) > 0) any_movement = true;
    for (Rank r = 0; r < w.partition.num_ranks(); ++r) {
      const std::int64_t delta =
          result.comp_real.at(r, t) - result.comp_real.at(r, t - 1);
      const std::int64_t net = result.comm_real.received_by(r, t) -
                               result.comm_real.sent_by(r, t);
      EXPECT_EQ(delta, net) << "rank " << r << " interval " << t;
    }
  }
  EXPECT_TRUE(any_movement);  // the drift must actually cross boundaries
}

TEST(WorkloadGenerator, GhostsTargetBoundaryRanks) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadGenerator gen(w.mesh, w.partition, mapper, default_params());
  const auto samples = drifting_cloud(1000, 3, 4);
  const WorkloadResult result = gen.generate(samples);
  // Some particles sit within the filter radius of foreign rank regions.
  std::int64_t total_ghosts = 0;
  for (std::size_t t = 0; t < result.num_intervals(); ++t)
    total_ghosts += result.comp_ghost.interval_total(t);
  EXPECT_GT(total_ghosts, 0);
  // Ghost communication volume equals ghost computation load (each ghost is
  // sent exactly once from its owner).
  for (std::size_t t = 0; t < result.num_intervals(); ++t)
    EXPECT_EQ(result.comm_ghost.interval_volume(t),
              result.comp_ghost.interval_total(t));
}

TEST(WorkloadGenerator, DisableGhostsAndComm) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadParams params;
  params.ghost_radius = 0.0;
  params.compute_ghosts = false;
  params.compute_comm = false;
  WorkloadGenerator gen(w.mesh, w.partition, mapper, params);
  const auto samples = drifting_cloud(500, 4, 5);
  const WorkloadResult result = gen.generate(samples);
  for (std::size_t t = 0; t < result.num_intervals(); ++t) {
    EXPECT_EQ(result.comp_ghost.interval_total(t), 0);
    EXPECT_EQ(result.comm_real.interval_volume(t), 0);
  }
}

TEST(WorkloadGenerator, MaxIntervalsLimits) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadParams params = default_params();
  params.max_intervals = 3;
  WorkloadGenerator gen(w.mesh, w.partition, mapper, params);
  const auto samples = drifting_cloud(200, 10, 6);
  EXPECT_EQ(gen.generate(samples).num_intervals(), 3u);
}

TEST(WorkloadGenerator, IntervalStrideSkipsSamples) {
  World w;
  ElementMapper mapper(w.mesh, w.partition);
  WorkloadParams params = default_params();
  params.interval_stride = 3;
  WorkloadGenerator gen(w.mesh, w.partition, mapper, params);
  const auto samples = drifting_cloud(200, 10, 7);
  const WorkloadResult result = gen.generate(samples);
  ASSERT_EQ(result.num_intervals(), 4u);  // samples 0, 3, 6, 9
  EXPECT_EQ(result.iterations[1], 30u);
}

TEST(WorkloadGenerator, StreamingMatchesInMemory) {
  World w;
  const auto samples = drifting_cloud(600, 5, 8);
  const std::string path = testing::TempDir() + "/picp_gen_stream.bin";
  {
    TraceWriter writer(path, 600, 10, w.mesh.domain(), CoordKind::kFloat64);
    for (const auto& s : samples) writer.append(s.iteration, s.positions);
  }
  ElementMapper m1(w.mesh, w.partition);
  ElementMapper m2(w.mesh, w.partition);
  WorkloadGenerator gen_mem(w.mesh, w.partition, m1, default_params());
  WorkloadGenerator gen_stream(w.mesh, w.partition, m2, default_params());
  const WorkloadResult a = gen_mem.generate(samples);
  TraceReader reader(path);
  const WorkloadResult b = gen_stream.generate(reader);
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  for (std::size_t t = 0; t < a.num_intervals(); ++t)
    for (Rank r = 0; r < 8; ++r) {
      EXPECT_EQ(a.comp_real.at(r, t), b.comp_real.at(r, t));
      EXPECT_EQ(a.comp_ghost.at(r, t), b.comp_ghost.at(r, t));
    }
  std::remove(path.c_str());
}

TEST(WorkloadGenerator, BinMapperPartitionsRecorded) {
  World w;
  BinMapper mapper(8, 0.05);
  WorkloadGenerator gen(w.mesh, w.partition, mapper, default_params());
  const auto samples = drifting_cloud(500, 4, 9);
  const WorkloadResult result = gen.generate(samples);
  ASSERT_EQ(result.partitions_per_interval.size(), 4u);
  for (const std::int64_t bins : result.partitions_per_interval) {
    EXPECT_GE(bins, 1);
    EXPECT_LE(bins, 8);
  }
}

/// Each bucket of `lists` as its own vector, for whole-list comparisons.
std::vector<std::vector<std::uint32_t>> bucket_lists(const Buckets& lists,
                                                     Rank ranks) {
  std::vector<std::vector<std::uint32_t>> out;
  for (Rank r = 0; r < ranks; ++r) {
    const auto ids = lists.bucket(static_cast<std::size_t>(r));
    out.emplace_back(ids.begin(), ids.end());
  }
  return out;
}

TEST(WorkloadGenerator, ParallelGhostSearchBitIdenticalToSerial) {
  // accumulate_interval_workload split over pools of 2, 4 and 7 workers
  // must file the same per-rank ghost lists and tally exactly what one
  // inline chunk does, and that chunk must agree with a reference built
  // from ranks_near, particle by particle. The search splits 1500
  // particles (grain 256) into 2, 4 and 5 chunks, and the tally 448 ranks
  // (grain 64) into 2, 4 and 7.
  constexpr Rank kRanks = 448;
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 16, 16, 16, 3);
  const MeshPartition partition = rcb_partition(mesh, kRanks);
  const auto samples = drifting_cloud(1500, 6, 21);
  struct Run {
    WorkloadResult result;
    std::vector<std::vector<Rank>> owners;  // per interval
    std::vector<Buckets> ghosts;            // per interval
  };
  const auto account = [&](ThreadPool* pool) {
    ElementMapper mapper(mesh, partition);
    Run run{WorkloadResult(kRanks, samples.size()),
            std::vector<std::vector<Rank>>(samples.size()),
            std::vector<Buckets>(samples.size())};
    std::vector<Rank> prev_owners;
    for (std::size_t t = 0; t < samples.size(); ++t) {
      std::vector<Rank>& owners = run.owners[t];
      mapper.map(samples[t].positions, owners);
      accumulate_interval_workload(mesh, partition, samples[t].positions,
                                   owners, prev_owners, default_params(), t,
                                   run.result, pool, &run.ghosts[t]);
      prev_owners = owners;
    }
    return run;
  };
  const Run serial = account(nullptr);
  ASSERT_GT(serial.result.comp_ghost.interval_total(samples.size() - 1), 0);
  ASSERT_GT(serial.result.comm_ghost.total_volume(), 0);
  ASSERT_GT(serial.result.comm_real.total_volume(), 0);

  // Reference: per particle, the ranks it is a ghost on, sent from its
  // owner.
  const GhostFinder finder(mesh, partition, default_params().ghost_radius);
  std::vector<Rank> near;
  for (std::size_t t = 0; t < samples.size(); ++t) {
    const std::vector<Rank>& owners = serial.owners[t];
    std::vector<std::vector<std::uint32_t>> lists(kRanks);
    std::map<std::pair<Rank, Rank>, std::int64_t> sends;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      finder.ranks_near(samples[t].positions[i], owners[i], near);
      for (const Rank r : near) {
        lists[static_cast<std::size_t>(r)].push_back(
            static_cast<std::uint32_t>(i));
        ++sends[{owners[i], r}];
      }
    }
    EXPECT_EQ(bucket_lists(serial.ghosts[t], kRanks), lists) << "t=" << t;
    for (Rank r = 0; r < kRanks; ++r)
      EXPECT_EQ(serial.result.comp_ghost.at(r, t),
                static_cast<std::int64_t>(
                    lists[static_cast<std::size_t>(r)].size()))
          << "r=" << r << " t=" << t;
    const auto transfers = serial.result.comm_ghost.interval_transfers(t);
    ASSERT_EQ(transfers.size(), sends.size()) << "t=" << t;
    auto expected = sends.begin();
    for (const auto& transfer : transfers) {
      EXPECT_EQ(std::make_pair(transfer.from, transfer.to), expected->first)
          << "t=" << t;
      EXPECT_EQ(transfer.count, expected->second) << "t=" << t;
      ++expected;
    }
  }

  // Workers, then the search's and the tally's chunks.
  for (const auto& [workers, search, tally] :
       {std::tuple{2u, 2u, 2u}, std::tuple{4u, 4u, 4u},
        std::tuple{7u, 5u, 7u}}) {
    ThreadPool pool(workers);
    const Run split = account(&pool);
    pool.wait_idle();  // a chunk's task may still be queued after the call
    // Per interval the search's count and scatter steps and the tally each
    // submit one task per chunk but the caller's.
    EXPECT_EQ(pool.stats().tasks,
              samples.size() * (2 * (search - 1) + (tally - 1)))
        << workers << " workers split the search or the tally otherwise";
    const std::string what = std::to_string(workers) + " workers";
    expect_same_workload(serial.result, split.result, what);
    for (std::size_t t = 0; t < samples.size(); ++t)
      EXPECT_EQ(bucket_lists(serial.ghosts[t], kRanks),
                bucket_lists(split.ghosts[t], kRanks))
          << what << " t=" << t;
  }
}

TEST(WorkloadGenerator, MismatchedRanksThrow) {
  World w;
  BinMapper mapper(16, 0.05);  // partition has 8 ranks
  EXPECT_THROW(
      WorkloadGenerator(w.mesh, w.partition, mapper, default_params()),
      Error);
}

}  // namespace
}  // namespace picp
