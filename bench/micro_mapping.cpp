// Micro-benchmarks of the particle-mapping hot paths: bin-tree construction
// (rebuilt every interval in bin-based mapping), bulk owner assignment and
// the mesh partitions the element mappers start from.

#include <benchmark/benchmark.h>

#include "mapping/bin_mapper.hpp"
#include "mapping/element_mapper.hpp"
#include "mapping/hilbert_mapper.hpp"
#include "util/rng.hpp"

namespace {

using namespace picp;

std::vector<Vec3> cloud(std::size_t n) {
  Xoshiro256 rng(42);
  std::vector<Vec3> out(n);
  for (auto& p : out)
    p = Vec3(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
             rng.uniform(0.05, 0.25));
  return out;
}

void BM_BinTreeBuild(benchmark::State& state) {
  const auto positions = cloud(static_cast<std::size_t>(state.range(0)));
  BinTree tree;
  BinTree::BuildParams params;
  params.threshold = 0.02;
  params.max_bins = 1044;
  for (auto _ : state) {
    tree.build(positions, params);
    benchmark::DoNotOptimize(tree.num_bins());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinTreeBuild)->Arg(10000)->Arg(30000)->Arg(100000);

void BM_BinTreePointQuery(benchmark::State& state) {
  const auto positions = cloud(30000);
  BinTree tree;
  tree.build(positions, {0.02, 1044, 1});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.bin_of(positions[i]));
    i = (i + 1) % positions.size();
  }
}
BENCHMARK(BM_BinTreePointQuery);

void BM_ElementMap(benchmark::State& state) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5);
  const MeshPartition partition = rcb_partition(mesh, 1044);
  ElementMapper mapper(mesh, partition);
  const auto positions = cloud(static_cast<std::size_t>(state.range(0)));
  std::vector<Rank> owners;
  for (auto _ : state) {
    mapper.map(positions, owners);
    benchmark::DoNotOptimize(owners.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ElementMap)->Arg(30000)->Arg(100000);

void BM_BinMap(benchmark::State& state) {
  BinMapper mapper(1044, 0.02);
  const auto positions = cloud(static_cast<std::size_t>(state.range(0)));
  std::vector<Rank> owners;
  for (auto _ : state) {
    mapper.map(positions, owners);
    benchmark::DoNotOptimize(owners.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinMap)->Arg(30000)->Arg(100000);

void BM_HilbertMap(benchmark::State& state) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5);
  HilbertMapper mapper(mesh, 1044);
  const auto positions = cloud(static_cast<std::size_t>(state.range(0)));
  std::vector<Rank> owners;
  for (auto _ : state) {
    mapper.map(positions, owners);
    benchmark::DoNotOptimize(owners.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HilbertMap)->Arg(30000);

// Rank counts: 16 and 128 span the daemon's cold configs, 1044 and 8352 the
// paper's processor counts.
void BM_RcbPartition(benchmark::State& state) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5);
  for (auto _ : state) {
    const MeshPartition partition =
        rcb_partition(mesh, static_cast<Rank>(state.range(0)));
    benchmark::DoNotOptimize(partition.max_elements_per_rank());
  }
}
BENCHMARK(BM_RcbPartition)->Arg(16)->Arg(128)->Arg(1044)->Arg(8352);

// The weighted re-partition of WeightedElementMapper: grid work plus a
// particle load that leaves ~30% of the elements empty.
void BM_WeightedRcbPartition(benchmark::State& state) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5);
  Xoshiro256 rng(7);
  std::vector<double> weights(static_cast<std::size_t>(mesh.num_elements()));
  for (double& w : weights) w = rng.uniform() < 0.3 ? 0.0 : rng.uniform(1, 9);
  for (auto _ : state) {
    const MeshPartition partition = weighted_rcb_partition(
        mesh, static_cast<Rank>(state.range(0)), weights);
    benchmark::DoNotOptimize(partition.max_elements_per_rank());
  }
}
BENCHMARK(BM_WeightedRcbPartition)->Arg(16)->Arg(128)->Arg(1044);

}  // namespace
