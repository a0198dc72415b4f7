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

/// Grains of the split rule (util/thread_pool.hpp), which splits a loop
/// only from two grains on: the owner filing stays inline under 4096
/// particles, and the tally under 128 ranks.
constexpr std::size_t kFilingGrain = 2048;
constexpr std::size_t kTallyGrain = 64;

/// Adds each rank's list length to its entry of `comp` at interval t.
void add_lengths(const Buckets& lists, std::size_t t, CompMatrix& comp) {
  const std::span<std::int64_t> row = comp.interval(t);
  for (std::size_t r = 0; r < row.size(); ++r)
    row[r] += static_cast<std::int64_t>(lists.bucket(r).size());
}

/// The one tally of both comm matrices: adds to `comm` at interval t one
/// transfer (s, r, n) per rank r and source s != r of n ids on r's list, id
/// i coming from sources[i]. Chunks of ranks count with a dense counter, so
/// the sends come grouped by rank; one counting pass by source then puts
/// them in (from, to) order, so every add appends.
void tally_sends(const Buckets& lists, std::span<const Rank> sources,
                 std::size_t t, ThreadPool* pool, CommMatrix& comm) {
  const auto ranks = static_cast<std::size_t>(comm.num_ranks());
  const auto source = [sources](std::uint32_t i) {
    return static_cast<std::size_t>(sources[i]);
  };
  std::vector<std::vector<CommMatrix::Transfer>> chunks(
      chunk_count(pool, ranks, kTallyGrain));
  parallel_for(
      pool, ranks, kTallyGrain,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> from(ranks);
        for (std::size_t r = begin; r < end; ++r) {
          const auto ids = lists.bucket(r);
          for (const std::uint32_t i : ids) ++from[source(i)];
          from[r] = 0;  // ids whose source is r did not move
          for (const std::uint32_t i : ids)
            if (const std::uint32_t n = std::exchange(from[source(i)], 0u))
              chunks[c].push_back({sources[i], static_cast<Rank>(r), n});
        }
      });
  std::vector<CommMatrix::Transfer> sends;
  for (const auto& chunk : chunks)
    sends.insert(sends.end(), chunk.begin(), chunk.end());
  Buckets by_source;  // a few thousand sends: one inline chunk
  bucket_by_key(nullptr, sends.size(), 1, ranks, by_source,
                [&sends](std::size_t k) { return sends[k].from; });
  for (const std::uint32_t k : by_source.ids)
    comm.add(sends[k].from, sends[k].to, t, sends[k].count);
}

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
                               pool_, &lists_);
  prev_owners_ = slot.owners;
}

void accumulate_interval_workload(
    const SpectralMesh& mesh, const MeshPartition& partition,
    std::span<const Vec3> positions, std::span<const Rank> owners,
    std::span<const Rank> prev_owners, const WorkloadParams& params,
    std::size_t t, WorkloadResult& result, ThreadPool* pool,
    RankLists* lists) {
  PICP_REQUIRE(owners.size() == positions.size(), "owner array size");
  RankLists local;
  RankLists& filed = lists != nullptr ? *lists : local;
  const auto ranks = static_cast<std::size_t>(partition.num_ranks());
  {
    const telemetry::ScopedSpan span("workload.account", "pipeline");
    // Computation load: real particles per rank.
    bucket_by_key(pool, owners.size(), kFilingGrain, ranks, filed.owned,
                  [owners](std::size_t i) { return owners[i]; });
    add_lengths(filed.owned, t, result.comp_real);
    // Communication load: migration between consecutive intervals (a
    // particle whose residing processor changed moves its data across
    // ranks).
    if (params.compute_comm && t > 0 && prev_owners.size() == owners.size())
      tally_sends(filed.owned, prev_owners, t, pool, result.comm_real);
  }

  // Ghost particles: influence radius crossing grid-region boundaries.
  if (params.compute_ghosts) {
    const telemetry::ScopedSpan span("workload.ghost", "pipeline");
    GhostFinder(mesh, partition, params.ghost_radius)
        .bucket(positions, owners, pool, filed.ghosts);
    add_lengths(filed.ghosts, t, result.comp_ghost);
    if (params.compute_comm)
      tally_sends(filed.ghosts, owners, t, pool, result.comm_ghost);
  }
}

}  // namespace picp
