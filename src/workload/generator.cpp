#include "workload/generator.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/ghost_finder.hpp"

namespace picp {

WorkloadGenerator::WorkloadGenerator(const SpectralMesh& mesh,
                                     const MeshPartition& partition,
                                     Mapper& mapper,
                                     const WorkloadParams& params)
    : mesh_(&mesh), partition_(&partition), mapper_(&mapper), params_(params) {
  PICP_REQUIRE(partition.num_ranks() == mapper.num_ranks(),
               "mapper and partition disagree on processor count");
  PICP_REQUIRE(params.interval_stride >= 1, "interval stride must be >= 1");
  if (params_.compute_ghosts)
    PICP_REQUIRE(params_.ghost_radius > 0.0,
                 "ghost accounting needs a positive filter radius");
  if (params_.threads > 1)
    pool_ = std::make_unique<ThreadPool>(params_.threads);
}

namespace {
std::size_t planned_intervals(std::size_t available,
                              const WorkloadParams& params) {
  const std::size_t strided =
      (available + params.interval_stride - 1) / params.interval_stride;
  return std::min(strided, params.max_intervals);
}
}  // namespace

WorkloadResult WorkloadGenerator::generate(TraceReader& trace) {
  {
    const telemetry::ScopedSpan span("trace.read", "pipeline");
    trace.rewind();
  }
  const std::size_t total =
      planned_intervals(static_cast<std::size_t>(trace.num_samples()), params_);
  WorkloadResult result;
  result.num_ranks = mapper_->num_ranks();
  result.elements_per_rank = partition_->elements_per_rank();
  result.comp_real = CompMatrix(result.num_ranks, total);
  result.comp_ghost = CompMatrix(result.num_ranks, total);
  result.comm_real = CommMatrix(result.num_ranks, total);
  result.comm_ghost = CommMatrix(result.num_ranks, total);
  result.iterations.reserve(total);
  result.partitions_per_interval.reserve(total);

  TraceSample sample;
  const auto read_next = [&trace, &sample] {
    const telemetry::ScopedSpan span("trace.read", "pipeline");
    return trace.read_next(sample);
  };
  std::size_t seen = 0;
  std::size_t t = 0;
  while (t < total && read_next()) {
    if (seen++ % params_.interval_stride != 0) continue;
    params_.deadline.check("workload.interval");
    process_interval(t, sample.iteration, sample.positions, result);
    ++t;
  }
  PICP_ENSURE(t == total, "trace ended before the planned interval count");
  return result;
}

WorkloadResult WorkloadGenerator::generate(
    std::span<const TraceSample> samples) {
  const std::size_t total = planned_intervals(samples.size(), params_);
  WorkloadResult result;
  result.num_ranks = mapper_->num_ranks();
  result.elements_per_rank = partition_->elements_per_rank();
  result.comp_real = CompMatrix(result.num_ranks, total);
  result.comp_ghost = CompMatrix(result.num_ranks, total);
  result.comm_real = CommMatrix(result.num_ranks, total);
  result.comm_ghost = CommMatrix(result.num_ranks, total);
  result.iterations.reserve(total);
  result.partitions_per_interval.reserve(total);

  std::size_t t = 0;
  for (std::size_t s = 0; s < samples.size() && t < total;
       s += params_.interval_stride) {
    process_interval(t, samples[s].iteration, samples[s].positions, result);
    ++t;
  }
  return result;
}

void accumulate_interval_workload(
    const SpectralMesh& mesh, const MeshPartition& partition,
    std::span<const Vec3> positions, std::span<const Rank> owners,
    std::span<const Rank> prev_owners, const WorkloadParams& params,
    std::size_t t, WorkloadResult& result) {
  PICP_REQUIRE(owners.size() == positions.size(), "owner array size");
  {
    const telemetry::ScopedSpan span("workload.account", "pipeline");
    // Computation load: real particles per rank.
    for (const Rank r : owners) result.comp_real.add(r, t, 1);

    // Communication load: migration between consecutive intervals (a
    // particle whose residing processor changed moves its data across
    // ranks).
    if (params.compute_comm && t > 0 && prev_owners.size() == owners.size()) {
      for (std::size_t i = 0; i < owners.size(); ++i)
        if (owners[i] != prev_owners[i])
          result.comm_real.add(prev_owners[i], owners[i], t, 1);
    }
  }

  // Ghost particles: influence radius crossing grid-region boundaries.
  if (params.compute_ghosts) {
    const telemetry::ScopedSpan span("workload.ghost", "pipeline");
    const GhostFinder finder(mesh, partition, params.ghost_radius);
    std::vector<Rank> ghost_ranks;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      finder.ranks_near(positions[i], owners[i], ghost_ranks);
      for (const Rank r : ghost_ranks) {
        result.comp_ghost.add(r, t, 1);
        if (params.compute_comm) result.comm_ghost.add(owners[i], r, t, 1);
      }
    }
  }
}

void WorkloadGenerator::process_interval(std::size_t t,
                                         std::uint64_t iteration,
                                         std::span<const Vec3> positions,
                                         WorkloadResult& result) {
  // Mimic the application's mapping algorithm on this interval's positions.
  {
    const telemetry::ScopedSpan span("mapping.map", "pipeline");
    mapper_->map(positions, owners_);
  }
  PICP_ENSURE(owners_.size() == positions.size(), "mapper output size");

  result.iterations.push_back(iteration);
  result.partitions_per_interval.push_back(mapper_->num_partitions());

  if (pool_ == nullptr) {
    accumulate_interval_workload(*mesh_, *partition_, positions, owners_,
                                 prev_owners_, params_, t, result);
  } else {
    // Parallel path: the real-particle counting and migration scans are
    // memory-bandwidth bound and cheap; only the ghost search (a spatial
    // query per particle) is farmed out. Per-worker accumulators merge
    // serially, so the result is bit-identical to the serial path.
    WorkloadParams serial = params_;
    serial.compute_ghosts = false;
    accumulate_interval_workload(*mesh_, *partition_, positions, owners_,
                                 prev_owners_, serial, t, result);
    if (params_.compute_ghosts) {
      const telemetry::ScopedSpan span("workload.ghost", "pipeline");
      const GhostFinder finder(*mesh_, *partition_, params_.ghost_radius);
      const std::size_t workers = pool_->size();
      struct Local {
        std::vector<std::int64_t> ghost_counts;
        std::vector<std::pair<Rank, Rank>> sends;  // (owner, target)
      };
      std::vector<Local> locals(workers);
      const std::size_t n = positions.size();
      const std::size_t chunk = (n + workers - 1) / workers;
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t begin = w * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        if (begin >= end) break;
        pool_->submit([&, w, begin, end] {
          Local& local = locals[w];
          local.ghost_counts.assign(
              static_cast<std::size_t>(result.num_ranks), 0);
          std::vector<Rank> near;
          for (std::size_t i = begin; i < end; ++i) {
            finder.ranks_near(positions[i], owners_[i], near);
            for (const Rank r : near) {
              ++local.ghost_counts[static_cast<std::size_t>(r)];
              if (params_.compute_comm)
                local.sends.emplace_back(owners_[i], r);
            }
          }
        });
      }
      pool_->wait_idle();
      for (const Local& local : locals) {
        for (std::size_t r = 0; r < local.ghost_counts.size(); ++r)
          if (local.ghost_counts[r] != 0)
            result.comp_ghost.add(static_cast<Rank>(r), t,
                                  local.ghost_counts[r]);
        for (const auto& [owner, target] : local.sends)
          result.comm_ghost.add(owner, target, t, 1);
      }
    }
  }
  prev_owners_ = owners_;
}

}  // namespace picp
