// Micro-benchmarks of the Dynamic Workload Generator internals: the
// ghost-rank search (the generator's dominant cost), full per-interval
// accounting throughput, inline and split over a pool, the cost of one
// split itself, filling one interval of a comm matrix, and the CRC32C that
// checks every trace frame it reads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mapping/element_mapper.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/ghost_finder.hpp"

namespace {

using namespace picp;

struct World {
  SpectralMesh mesh{Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5};
  MeshPartition partition{rcb_partition(mesh, 1044)};
};

std::vector<Vec3> cloud(std::size_t n) {
  Xoshiro256 rng(7);
  std::vector<Vec3> out(n);
  for (auto& p : out)
    p = Vec3(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
             rng.uniform(0.05, 0.3));
  return out;
}

void BM_GhostRanksNear(benchmark::State& state) {
  World w;
  const GhostFinder finder(w.mesh, w.partition,
                           static_cast<double>(state.range(0)) * 1e-3);
  const auto positions = cloud(10000);
  std::vector<Rank> out;
  std::size_t i = 0;
  for (auto _ : state) {
    finder.ranks_near(positions[i], 0, out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % positions.size();
  }
}
BENCHMARK(BM_GhostRanksNear)->Arg(12)->Arg(23)->Arg(46)->Arg(92);

// Args: particles, then the workers of the pool the ghost search splits
// over (0 = no pool: the one inline chunk the daemon's pipeline runs).
void BM_IntervalAccounting(benchmark::State& state) {
  World w;
  const auto positions = cloud(static_cast<std::size_t>(state.range(0)));
  ElementMapper mapper(w.mesh, w.partition);
  std::vector<Rank> owners;
  mapper.map(positions, owners);
  WorkloadParams params;
  params.ghost_radius = 0.023;
  std::unique_ptr<ThreadPool> pool;
  if (state.range(1) > 0)
    pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    WorkloadResult result(1044, 1);
    accumulate_interval_workload(w.mesh, w.partition, positions, owners, {},
                                 params, 0, result, pool.get());
    benchmark::DoNotOptimize(result.comp_real.interval_total(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalAccounting)
    ->ArgsProduct({{10000, 30000}, {0, 2, 4}})
    ->UseRealTime();

// One parallel_for of 4 chunks on a 4-worker pool. The Arg is each chunk's
// busy wait in µs: 0 prices the dispatch alone; at 300 the call takes
// 300 µs when the workers wake at once and 1200 µs when the caller runs
// every chunk itself.
void BM_ParallelForDispatch(benchmark::State& state) {
  ThreadPool pool(4);
  const std::chrono::microseconds work(state.range(0));
  for (auto _ : state)
    parallel_for(&pool, 4, 1, [work](std::size_t, std::size_t, std::size_t) {
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start < work) {
      }
    });
}
BENCHMARK(BM_ParallelForDispatch)->Arg(0)->Arg(300)->UseRealTime();

// One interval's transfers added to a fresh matrix: 5,565 distinct pairs
// over 8352 ranks, the mean ghost pairs per interval of bin mapping at
// R = 8352 on picbench's seed-1 offline inputs. Arg 0 adds them in
// (from, to) order, as the workload accounting does, so each add appends;
// Arg 1 adds them shuffled, as a writer that adds in particle order does,
// so each add inserts.
void BM_CommMatrixAdd(benchmark::State& state) {
  constexpr Rank kRanks = 8352;
  constexpr std::size_t kPairs = 5565;
  Xoshiro256 rng(9);
  std::set<std::pair<Rank, Rank>> distinct;
  while (distinct.size() < kPairs)
    distinct.emplace(static_cast<Rank>(rng.uniform_below(kRanks)),
                     static_cast<Rank>(rng.uniform_below(kRanks)));
  std::vector<std::pair<Rank, Rank>> pairs(distinct.begin(), distinct.end());
  if (state.range(0) == 1) std::shuffle(pairs.begin(), pairs.end(), rng);
  for (auto _ : state) {
    CommMatrix comm(kRanks, 1);
    for (const auto& [from, to] : pairs) comm.add(from, to, 0);
    benchmark::DoNotOptimize(comm.interval_transfers(0).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPairs));
}
BENCHMARK(BM_CommMatrixAdd)->Arg(0)->Arg(1);

// One frame's checksum. The Arg is the frame's payload in bytes: 48000 and
// 240000 are picbench's serve and offline traces (4,000 and 20,000
// float32 particles). It runs the CPU's CRC32C instruction where the host
// has it, as every trace read does.
void BM_Crc32c(benchmark::State& state) {
  Xoshiro256 rng(11);
  std::vector<unsigned char> frame(static_cast<std::size_t>(state.range(0)));
  for (unsigned char& byte : frame)
    byte = static_cast<unsigned char>(rng.uniform_below(256));
  for (auto _ : state)
    benchmark::DoNotOptimize(crc32c(frame.data(), frame.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(48000)->Arg(240000);

}  // namespace
