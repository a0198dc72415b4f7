#include "workload/generator.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/ghost_finder.hpp"

namespace picp {

namespace {
/// Fewest ranks per chunk of the ghost tally.
constexpr std::size_t kTallyGrain = 64;
}  // namespace

WorkloadGenerator::WorkloadGenerator(const SpectralMesh& mesh,
                                     const MeshPartition& partition,
                                     Mapper& mapper,
                                     const WorkloadParams& params,
                                     ThreadPool* pool)
    : mesh_(&mesh),
      partition_(&partition),
      mapper_(&mapper),
      params_(params),
      pool_(pool) {
  PICP_REQUIRE(partition.num_ranks() == mapper.num_ranks(),
               "mapper and partition disagree on processor count");
  PICP_REQUIRE(params.interval_stride >= 1, "interval stride must be >= 1");
  if (params_.compute_ghosts)
    PICP_REQUIRE(params_.ghost_radius > 0.0,
                 "ghost accounting needs a positive filter radius");
}

WorkloadResult::WorkloadResult(Rank ranks, std::size_t intervals)
    : num_ranks(ranks),
      comp_real(ranks, intervals),
      comp_ghost(ranks, intervals),
      comm_real(ranks, intervals),
      comm_ghost(ranks, intervals) {}

WorkloadResult WorkloadGenerator::start_result(std::size_t available) const {
  const std::size_t strided =
      (available + params_.interval_stride - 1) / params_.interval_stride;
  const std::size_t total = std::min(strided, params_.max_intervals);
  WorkloadResult result(mapper_->num_ranks(), total);
  result.elements_per_rank = partition_->elements_per_rank();
  result.iterations.reserve(total);
  result.partitions_per_interval.reserve(total);
  return result;
}

WorkloadResult WorkloadGenerator::generate(TraceReader& trace) {
  {
    const telemetry::ScopedSpan span("trace.read", "pipeline");
    trace.rewind();
  }
  WorkloadResult result =
      start_result(static_cast<std::size_t>(trace.num_samples()));
  const std::size_t total = result.comp_real.num_intervals();

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
  WorkloadResult result = start_result(samples.size());
  const std::size_t total = result.comp_real.num_intervals();

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
    std::size_t t, WorkloadResult& result, ThreadPool* pool,
    Buckets* ghosts) {
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
    Buckets local;
    Buckets& lists = ghosts != nullptr ? *ghosts : local;
    GhostFinder(mesh, partition, params.ghost_radius)
        .bucket(positions, owners, pool, lists);
    // Each chunk of ranks writes only its ranks' comp_ghost entries and
    // collects its (owner, rank, count) sends, which are added in chunk
    // order afterwards.
    const auto ranks = static_cast<std::size_t>(partition.num_ranks());
    std::vector<std::vector<CommMatrix::Transfer>> sends(
        chunk_count(pool, ranks, kTallyGrain));
    parallel_for(
        pool, ranks, kTallyGrain,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> from_owner(params.compute_comm ? ranks
                                                                    : 0);
          std::vector<Rank> owners_seen;
          for (std::size_t r = begin; r < end; ++r) {
            const auto ids = lists.bucket(r);
            result.comp_ghost.add(static_cast<Rank>(r), t,
                                  static_cast<std::int64_t>(ids.size()));
            if (!params.compute_comm) continue;
            for (const std::uint32_t i : ids)
              if (from_owner[static_cast<std::size_t>(owners[i])]++ == 0)
                owners_seen.push_back(owners[i]);
            for (const Rank owner : owners_seen)
              sends[c].push_back(CommMatrix::Transfer{
                  owner, static_cast<Rank>(r),
                  std::exchange(from_owner[static_cast<std::size_t>(owner)],
                                0u)});
            owners_seen.clear();
          }
        });
    for (const auto& chunk : sends)
      for (const CommMatrix::Transfer& send : chunk)
        result.comm_ghost.add(send.from, send.to, t, send.count);
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

  accumulate_interval_workload(*mesh_, *partition_, positions, owners_,
                               prev_owners_, params_, t, result, pool_,
                               &ghosts_);
  prev_owners_ = owners_;
}

}  // namespace picp
