#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "mapping/bin_mapper.hpp"
#include "mapping/element_mapper.hpp"
#include "mapping/weighted_mapper.hpp"
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
    std::vector<std::int64_t> sent(
        static_cast<std::size_t>(w.partition.num_ranks()), 0);
    for (const CommMatrix::Transfer& x : result.comm_real.interval_transfers(t))
      sent[static_cast<std::size_t>(x.from)] += x.count;
    for (Rank r = 0; r < w.partition.num_ranks(); ++r) {
      const std::int64_t delta =
          result.comp_real.at(r, t) - result.comp_real.at(r, t - 1);
      const std::int64_t net = result.comm_real.received_by(r, t) -
                               sent[static_cast<std::size_t>(r)];
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
  // must file the same per-rank owner and ghost lists and tally exactly
  // what one inline chunk does, and that chunk must agree with a reference
  // built particle by particle: the lists from owners and ranks_near,
  // comm_real from (previous owner, owner) pairs and comm_ghost from
  // (owner, visited rank) pairs. 6144 particles split the owner filing
  // (grain 2048) into 2, 3 and 3 chunks and the ghost search (grain 256)
  // into 2, 4 and 7; both tallies split 448 ranks (grain 64) into 2, 4
  // and 7.
  constexpr Rank kRanks = 448;
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 16, 16, 16, 3);
  const MeshPartition partition = rcb_partition(mesh, kRanks);
  const auto samples = drifting_cloud(6144, 6, 21);
  struct Run {
    WorkloadResult result;
    std::vector<std::vector<Rank>> owners;  // per interval
    std::vector<RankLists> lists;           // per interval
  };
  const auto account = [&](ThreadPool* pool) {
    ElementMapper mapper(mesh, partition);
    Run run{WorkloadResult(kRanks, samples.size()),
            std::vector<std::vector<Rank>>(samples.size()),
            std::vector<RankLists>(samples.size())};
    std::vector<Rank> prev_owners;
    for (std::size_t t = 0; t < samples.size(); ++t) {
      std::vector<Rank>& owners = run.owners[t];
      mapper.map(samples[t].positions, owners);
      accumulate_interval_workload(mesh, partition, samples[t].positions,
                                   owners, prev_owners, default_params(), t,
                                   run.result, pool, &run.lists[t]);
      prev_owners = owners;
    }
    return run;
  };
  const Run serial = account(nullptr);
  ASSERT_GT(serial.result.comp_ghost.interval_total(samples.size() - 1), 0);
  ASSERT_GT(serial.result.comm_ghost.total_volume(), 0);
  ASSERT_GT(serial.result.comm_real.total_volume(), 0);

  using Sends = std::map<std::pair<Rank, Rank>, std::int64_t>;
  const auto expect_transfers = [](const CommMatrix& comm, std::size_t t,
                                   const Sends& sends, const char* name) {
    const auto transfers = comm.interval_transfers(t);
    ASSERT_EQ(transfers.size(), sends.size()) << name << " t=" << t;
    auto expected = sends.begin();
    for (const auto& transfer : transfers) {
      EXPECT_EQ(std::make_pair(transfer.from, transfer.to), expected->first)
          << name << " t=" << t;
      EXPECT_EQ(transfer.count, expected->second) << name << " t=" << t;
      ++expected;
    }
  };
  const GhostFinder finder(mesh, partition, default_params().ghost_radius);
  std::vector<Rank> near;
  for (std::size_t t = 0; t < samples.size(); ++t) {
    const std::vector<Rank>& owners = serial.owners[t];
    std::vector<std::vector<std::uint32_t>> owned(kRanks);
    std::vector<std::vector<std::uint32_t>> ghosts(kRanks);
    Sends moves;
    Sends sends;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      owned[static_cast<std::size_t>(owners[i])].push_back(id);
      if (t > 0 && serial.owners[t - 1][i] != owners[i])
        ++moves[{serial.owners[t - 1][i], owners[i]}];
      finder.ranks_near(samples[t].positions[i], owners[i], near);
      for (const Rank r : near) {
        ghosts[static_cast<std::size_t>(r)].push_back(id);
        ++sends[{owners[i], r}];
      }
    }
    EXPECT_EQ(bucket_lists(serial.lists[t].owned, kRanks), owned)
        << "t=" << t;
    EXPECT_EQ(bucket_lists(serial.lists[t].ghosts, kRanks), ghosts)
        << "t=" << t;
    for (Rank r = 0; r < kRanks; ++r) {
      const auto k = static_cast<std::size_t>(r);
      EXPECT_EQ(serial.result.comp_real.at(r, t),
                static_cast<std::int64_t>(owned[k].size()))
          << "r=" << r << " t=" << t;
      EXPECT_EQ(serial.result.comp_ghost.at(r, t),
                static_cast<std::int64_t>(ghosts[k].size()))
          << "r=" << r << " t=" << t;
    }
    expect_transfers(serial.result.comm_real, t, moves, "comm_real");
    expect_transfers(serial.result.comm_ghost, t, sends, "comm_ghost");
  }

  // Workers, then the chunks of the owner filing, the ghost search and
  // the tallies.
  for (const auto& [workers, filing, search, tally] :
       {std::tuple{2u, 2u, 2u, 2u}, std::tuple{4u, 3u, 4u, 4u},
        std::tuple{7u, 3u, 7u, 7u}}) {
    ThreadPool pool(workers);
    const Run split = account(&pool);
    pool.wait_idle();  // a chunk's task may still be queued after the call
    // Each split loop submits one task per chunk but the caller's. Per
    // interval the filing's and the search's count and scatter steps and
    // the ghost tally split, and the migration tally from interval 1 on.
    const std::size_t intervals = samples.size();
    EXPECT_EQ(pool.stats().tasks,
              intervals * (2 * (filing - 1) + 2 * (search - 1) + (tally - 1)) +
                  (intervals - 1) * (tally - 1))
        << workers << " workers split a loop otherwise";
    const std::string what = std::to_string(workers) + " workers";
    expect_same_workload(serial.result, split.result, what);
    for (std::size_t t = 0; t < samples.size(); ++t) {
      EXPECT_EQ(bucket_lists(serial.lists[t].owned, kRanks),
                bucket_lists(split.lists[t].owned, kRanks))
          << what << " t=" << t;
      EXPECT_EQ(bucket_lists(serial.lists[t].ghosts, kRanks),
                bucket_lists(split.lists[t].ghosts, kRanks))
          << what << " t=" << t;
    }
  }
}

TEST(WorkloadGenerator, OverlappedGenerationEqualsInline) {
  // On a pool, interval t + 1 is read and mapped beside interval t's
  // accounting. That must give exactly what the inline loop gives, for
  // both overloads, every mapper, strides 1-3 and a max_intervals below
  // the sample count. The weighted mapper keeps its partition from one
  // map() to the next unless the imbalance passes its trigger, so its
  // owners depend on map() running once per interval, in order; at a
  // trigger of 10 this cloud repartitions on some intervals, not all. At
  // 192 ranks the tally (grain 64) and the ghost search (1500 particles,
  // grain 256) both split on either pool.
  constexpr Rank kRanks = 192;
  constexpr std::size_t kSamples = 9;
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 12, 12, 12, 3);
  const MeshPartition partition = rcb_partition(mesh, kRanks);
  const auto samples = drifting_cloud(1500, kSamples, 31);
  const std::string path = testing::TempDir() + "/picp_gen_overlap.bin";
  {
    TraceWriter writer(path, 1500, 10, mesh.domain(), CoordKind::kFloat64);
    for (const auto& s : samples) writer.append(s.iteration, s.positions);
  }
  TraceReader reader(path);
  ThreadPool two(2);
  ThreadPool four(4);
  constexpr auto kAll = static_cast<std::size_t>(-1);
  for (const char* kind : {"element", "bin", "hilbert", "weighted"}) {
    // (stride, max_intervals)
    for (const auto& [stride, max_intervals] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, kAll}, {2, kAll}, {3, kAll}, {1, 5}, {2, 3}}) {
      WorkloadParams params = default_params();
      params.interval_stride = stride;
      params.max_intervals = max_intervals;
      std::size_t repartitions = 0;
      const auto generate = [&](ThreadPool* pool, bool streamed) {
        const std::unique_ptr<Mapper> mapper =
            std::string(kind) == "weighted"
                ? std::make_unique<WeightedElementMapper>(mesh, kRanks, 1.0,
                                                          10.0)
                : make_mapper(kind, mesh, partition, params.ghost_radius);
        WorkloadGenerator gen(mesh, partition, *mapper, params, pool);
        WorkloadResult result =
            streamed ? gen.generate(reader) : gen.generate(samples);
        if (const auto* weighted =
                dynamic_cast<const WeightedElementMapper*>(mapper.get()))
          repartitions = weighted->repartition_count();
        return result;
      };
      const WorkloadResult expected = generate(nullptr, false);
      const std::string config = std::string(kind) + " stride " +
                                 std::to_string(stride) + " max " +
                                 std::to_string(max_intervals);
      ASSERT_EQ(expected.num_intervals(),
                std::min((kSamples + stride - 1) / stride, max_intervals))
          << config;
      if (std::string(kind) == "weighted" && stride == 1 &&
          max_intervals == kAll) {
        EXPECT_GT(repartitions, 1u) << "the cloud never forced a repartition";
        EXPECT_LT(repartitions, expected.num_intervals())
            << "every interval repartitioned, so no map() reused the last";
      }
      for (const bool streamed : {false, true}) {
        for (ThreadPool* pool : {&two, &four}) {
          const std::string what = config + (streamed ? " streamed" : "") +
                                   " on " + std::to_string(pool->size()) +
                                   " workers";
          const WorkloadResult got = generate(pool, streamed);
          EXPECT_EQ(expected.iterations, got.iterations) << what;
          EXPECT_EQ(expected.partitions_per_interval,
                    got.partitions_per_interval)
              << what;
          expect_same_workload(expected, got, what);
        }
      }
    }
  }
  std::remove(path.c_str());
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
