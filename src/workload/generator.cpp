#include "workload/generator.hpp"

#include <algorithm>
#include <array>
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

WorkloadResult WorkloadGenerator::generate(TraceReader& trace) {
  {
    const telemetry::ScopedSpan span("trace.read", "pipeline");
    trace.rewind();
  }
  std::size_t seen = 0;
  return run(static_cast<std::size_t>(trace.num_samples()),
             [this, &trace, &seen](Slot& slot) {
               // Read frames up to the next strided one.
               do {
                 const telemetry::ScopedSpan span("trace.read", "pipeline");
                 if (!trace.read_next(slot.frame)) return false;
               } while (seen++ % params_.interval_stride != 0);
               slot.sample = &slot.frame;
               return true;
             });
}

WorkloadResult WorkloadGenerator::generate(
    std::span<const TraceSample> samples) {
  std::size_t s = 0;
  return run(samples.size(), [this, samples, &s](Slot& slot) {
    if (s >= samples.size()) return false;
    slot.sample = &samples[s];
    s += params_.interval_stride;
    return true;
  });
}

WorkloadResult WorkloadGenerator::run(std::size_t available,
                                      const Source& next) {
  const std::size_t strided =
      (available + params_.interval_stride - 1) / params_.interval_stride;
  const std::size_t total = std::min(strided, params_.max_intervals);
  WorkloadResult result(mapper_->num_ranks(), total);
  result.elements_per_rank = partition_->elements_per_rank();
  result.iterations.reserve(total);
  result.partitions_per_interval.reserve(total);

  std::array<Slot, 2> slots;
  bool fetched = total > 0 && fetch(next, slots[0]);
  for (std::size_t t = 0; t < total; ++t) {
    PICP_ENSURE(fetched, "trace ended before the planned interval count");
    params_.deadline.check("workload.interval");
    // Item 0 accounts interval t; item 1 fetches t + 1, and only if there
    // is one, so no frame is read that a plain loop would not read. An
    // error in either item surfaces from parallel_for once both finish.
    parallel_for(pool_, 2, 1,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t item = begin; item < end; ++item) {
                     if (item == 0)
                       account(t, slots[t % 2], result);
                     else if (t + 1 < total)
                       fetched = fetch(next, slots[(t + 1) % 2]);
                   }
                 });
  }
  return result;
}

bool WorkloadGenerator::fetch(const Source& next, Slot& slot) {
  if (!next(slot)) return false;
  // Mimic the application's mapping algorithm on this interval's positions.
  {
    const telemetry::ScopedSpan span("mapping.map", "pipeline");
    mapper_->map(slot.sample->positions, slot.owners);
  }
  PICP_ENSURE(slot.owners.size() == slot.sample->positions.size(),
              "mapper output size");
  slot.partitions = mapper_->num_partitions();
  return true;
}

void WorkloadGenerator::account(std::size_t t, const Slot& slot,
                                WorkloadResult& result) {
  result.iterations.push_back(slot.sample->iteration);
  result.partitions_per_interval.push_back(slot.partitions);
  accumulate_interval_workload(*mesh_, *partition_, slot.sample->positions,
                               slot.owners, prev_owners_, params_, t, result,
                               pool_, &ghosts_);
  prev_owners_ = slot.owners;
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

}  // namespace picp
