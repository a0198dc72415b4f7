// Micro-benchmarks of the Dynamic Workload Generator internals: the
// ghost-rank search (the generator's dominant cost), full per-interval
// accounting throughput, inline and split over a pool, the cost of one
// split itself, and the CRC32C that checks every trace frame it reads.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
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

void BM_CommMatrixAdd(benchmark::State& state) {
  CommMatrix comm(8352, 1);
  Xoshiro256 rng(9);
  for (auto _ : state) {
    const Rank from = static_cast<Rank>(rng.uniform_below(8352));
    const Rank to = static_cast<Rank>(rng.uniform_below(8352));
    comm.add(from, to, 0, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommMatrixAdd);

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
