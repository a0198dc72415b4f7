// Micro-benchmark of the trace-driven simulation at paper scale, up to the
// largest rank count offline_sweep runs: the BSP interval recurrence over
// migration and ghost messages, packed per rank pair.

#include <benchmark/benchmark.h>

#include "bsst/trace_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace picp;

void BM_TraceDrivenSim(benchmark::State& state) {
  const auto ranks = static_cast<Rank>(state.range(0));
  const std::size_t intervals = 80;
  TraceSimInput input;
  input.num_ranks = ranks;
  input.num_intervals = intervals;
  input.compute_seconds.resize(static_cast<std::size_t>(ranks) * intervals);
  Xoshiro256 rng(3);
  for (double& c : input.compute_seconds) c = rng.uniform(0, 1e-4);
  const auto any_rank = [&] {
    return static_cast<Rank>(
        rng.uniform_below(static_cast<std::uint64_t>(ranks)));
  };
  CommMatrix comm(ranks, intervals);
  CommMatrix ghosts(ranks, intervals);
  for (std::size_t t = 1; t < intervals; ++t)
    for (int m = 0; m < 200; ++m) {
      const Rank from = any_rank();
      const Rank to = any_rank();
      comm.add(from, to, t, 5);
      // Half the ghost sends share a migration pair and pack with it.
      ghosts.add(m % 2 == 0 ? from : any_rank(), to, t, 20);
    }
  input.comm_real = &comm;
  input.comm_ghost = &ghosts;
  for (auto _ : state) {
    const SimReport report = run_trace_simulation(input);
    benchmark::DoNotOptimize(report.total_seconds);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ranks) *
                          static_cast<std::int64_t>(intervals));
}
BENCHMARK(BM_TraceDrivenSim)
    ->Arg(1044)
    ->Arg(4176)
    ->Arg(8352)
    ->Unit(benchmark::kMillisecond);

}  // namespace
