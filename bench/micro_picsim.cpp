// Micro-benchmarks of the PIC solver kernels — the workloads whose cost the
// performance models capture. Per-particle throughput here is what the
// trained models' coefficients correspond to.

#include <benchmark/benchmark.h>

#include <numeric>

#include "picsim/collision_grid.hpp"
#include "picsim/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/ghost_finder.hpp"

namespace {

using namespace picp;

struct KernelBench {
  SpectralMesh mesh{Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5};
  MeshPartition partition{rcb_partition(mesh, 1044)};
  GasModel gas{GasParams{}, mesh.domain()};
  PhysicsParams physics;
  SolverKernels kernels{mesh, gas, physics};
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;
  std::vector<Vec3> gas_values;
  std::vector<std::uint32_t> ids;

  explicit KernelBench(std::size_t n) {
    Xoshiro256 rng(11);
    positions.resize(n);
    velocities.resize(n);
    gas_values.resize(n);
    for (auto& p : positions)
      p = Vec3(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
               rng.uniform(0.05, 0.3));
    ids.resize(n);
    std::iota(ids.begin(), ids.end(), 0u);
  }
};

void BM_Interpolate(benchmark::State& state) {
  KernelBench b(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    b.kernels.interpolate(b.positions, b.ids, 0.5, b.gas_values);
    benchmark::DoNotOptimize(b.gas_values.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Interpolate)->Arg(30000);

void BM_EqSolve(benchmark::State& state) {
  KernelBench b(static_cast<std::size_t>(state.range(0)));
  CollisionGrid grid(0.05);
  grid.rebuild(b.positions);
  std::vector<Vec3> out(b.positions.size());
  for (auto _ : state) {
    b.kernels.eq_solve(b.velocities, b.gas_values, grid, b.ids, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EqSolve)->Arg(30000);

void BM_Push(benchmark::State& state) {
  KernelBench b(static_cast<std::size_t>(state.range(0)));
  std::vector<Vec3> out(b.positions.size());
  for (auto _ : state) {
    b.kernels.push(b.positions, b.velocities, b.ids, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Push)->Arg(30000);

void BM_Project(benchmark::State& state) {
  KernelBench b(30000);
  ProjectionField field(b.mesh.points_per_dim());
  const double filter = static_cast<double>(state.range(0)) * 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.kernels.project(b.positions, b.ids, filter, field));
    field.clear();
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_Project)->Arg(12)->Arg(23)->Arg(46);

void BM_CreateGhost(benchmark::State& state) {
  KernelBench b(30000);
  const GhostFinder finder(b.mesh, b.partition,
                           static_cast<double>(state.range(0)) * 1e-3);
  std::vector<GhostRecord> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.kernels.create_ghost(b.positions, b.ids, -1, finder, out));
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_CreateGhost)->Arg(12)->Arg(23)->Arg(46);

void BM_CollisionRebuild(benchmark::State& state) {
  KernelBench b(static_cast<std::size_t>(state.range(0)));
  CollisionGrid grid(0.01);
  for (auto _ : state) {
    grid.rebuild(b.positions);
    benchmark::DoNotOptimize(grid.cell_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollisionRebuild)->Arg(30000);

// Thread-scaling sweep of the driver's fused physics step (interpolate →
// eq_solve → push chunked over one pool, exactly as SimDriver::run executes
// it). Compare items_per_second across thread counts for the speedup; the
// Arg is the worker count.
void BM_PhysicsStepThreads(benchmark::State& state) {
  const std::size_t n = 30000;
  KernelBench b(n);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  CollisionGrid grid(0.05);
  grid.rebuild(b.positions, &pool);
  std::vector<Vec3> next_vel(n);
  std::vector<Vec3> next_pos(n);
  const auto chunk = [&](std::size_t, std::size_t begin, std::size_t end) {
    const std::span<const std::uint32_t> ids(b.ids.data() + begin,
                                             end - begin);
    b.kernels.interpolate(b.positions, ids, 0.5, b.gas_values);
    b.kernels.eq_solve(b.velocities, b.gas_values, grid, ids, next_vel);
    b.kernels.push(b.positions, next_vel, ids, next_pos);
  };
  for (auto _ : state) {
    parallel_for(&pool, n, 256, chunk);
    benchmark::DoNotOptimize(next_pos.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PhysicsStepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// The chunked rebuild on its own; one worker prices the one inline chunk.
void BM_CollisionRebuildThreads(benchmark::State& state) {
  KernelBench b(30000);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  CollisionGrid grid(0.01);
  for (auto _ : state) {
    grid.rebuild(b.positions, &pool);
    benchmark::DoNotOptimize(grid.cell_count());
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_CollisionRebuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
