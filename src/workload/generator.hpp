#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mapping/mapper.hpp"
#include "mesh/partition.hpp"
#include "mesh/spectral_mesh.hpp"
#include "trace/trace_reader.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"
#include "workload/comm_matrix.hpp"
#include "workload/comp_matrix.hpp"

namespace picp {

/// Options for one workload-generation pass.
struct WorkloadParams {
  /// Projection filter size: influence radius used for ghost particles and
  /// (for bin mapping) the threshold bin size.
  double ghost_radius = 0.0;
  /// Skip ghost accounting (cheaper when only real-particle load matters).
  bool compute_ghosts = true;
  /// Skip communication matrices.
  bool compute_comm = true;
  /// Process at most this many trace samples.
  std::size_t max_intervals = static_cast<std::size_t>(-1);
  /// Process every k-th sample (parameter sweeps trade resolution for speed).
  std::size_t interval_stride = 1;
  /// Request budget, checked between intervals so an over-budget
  /// generation unwinds with DeadlineExceeded instead of running to the
  /// end of the trace. Default: unlimited (no behavior change).
  Deadline deadline;
};

/// Everything the Dynamic Workload Generator produces for one
/// (trace, mapper, processor count) combination.
struct WorkloadResult {
  WorkloadResult() = default;
  /// Empty matrices for `ranks` ranks over `intervals` intervals.
  WorkloadResult(Rank ranks, std::size_t intervals);

  Rank num_ranks = 0;
  /// Solver iteration number of each processed interval.
  std::vector<std::uint64_t> iterations;
  /// P_comp for real and ghost particles (paper outputs them separately).
  CompMatrix comp_real;
  CompMatrix comp_ghost;
  /// P_comm for particle migration (real) and ghost creation (ghost).
  CommMatrix comm_real;
  CommMatrix comm_ghost;
  /// Mapper partitions per interval (#bins for bin mapping — Fig 6).
  std::vector<std::int64_t> partitions_per_interval;
  /// Spectral elements owned by each rank (static over the run for the
  /// grid decomposition; feeds the fluid-phase model).
  std::vector<std::int64_t> elements_per_rank;

  std::size_t num_intervals() const { return iterations.size(); }
};

/// Per-interval load accounting shared by the Dynamic Workload Generator
/// (replaying a trace) and the proxy application (counting in situ): adds
/// real/ghost computation loads plus migration and ghost-creation
/// communication for interval `t` into `result`. `prev_owners` may be empty
/// at the first interval. Using one implementation for both sides is what
/// makes generator-vs-application validation exact.
///
/// The ghost search, the costly part, is `GhostFinder::bucket`: it files
/// the interval's ghosts into per-rank lists, split over `pool` (with no
/// pool, one inline chunk). The tally then splits the ranks over `pool`:
/// comp_ghost adds each list's length, and comm_ghost one transfer per
/// distinct (owner, rank) pair, counted from the list. Every tally is the
/// same for any pool. When `ghosts` is given and `params.compute_ghosts` is
/// set, it receives the lists, so a caller that needs them searches no
/// second time.
void accumulate_interval_workload(
    const SpectralMesh& mesh, const MeshPartition& partition,
    std::span<const Vec3> positions, std::span<const Rank> owners,
    std::span<const Rank> prev_owners, const WorkloadParams& params,
    std::size_t t, WorkloadResult& result, ThreadPool* pool = nullptr,
    Buckets* ghosts = nullptr);

/// The paper's Dynamic Workload Generator (§II-A): replays a particle trace
/// through a particle-mapping algorithm to synthesize the per-processor
/// computation and communication load for any processor count, without
/// running the application.
///
/// Generation is a two-stage pipeline over intervals: while interval t is
/// accounted, interval t + 1 is read and mapped into a second slot, as the
/// two items of one `parallel_for` on the pool. With no pool that call is
/// one inline chunk, so interval t is accounted and then t + 1 fetched, in
/// the order of a plain loop. The mapper still sees one call per interval,
/// in interval order, and every output is the same for any pool.
///
/// Space complexity is O(num_particles + R): the trace is streamed with two
/// samples in flight, and only the previous interval's ownership is kept.
class WorkloadGenerator {
 public:
  /// Each interval's accounting splits over `pool`, and the next interval
  /// is read and mapped beside it (null: all inline).
  WorkloadGenerator(const SpectralMesh& mesh, const MeshPartition& partition,
                    Mapper& mapper, const WorkloadParams& params,
                    ThreadPool* pool = nullptr);

  /// Stream an on-disk trace (rewinds it first).
  WorkloadResult generate(TraceReader& trace);

  /// In-memory samples (tests, small studies), mapped in place.
  WorkloadResult generate(std::span<const TraceSample> samples);

 private:
  /// One interval in flight: its sample, and its owners and partition
  /// count as the mapper left them.
  struct Slot {
    TraceSample frame;                    // a streamed interval's storage
    const TraceSample* sample = nullptr;  // `frame` or the caller's
    std::vector<Rank> owners;
    std::int64_t partitions = 0;
  };
  /// Points a slot at the next interval's sample; false when none is left.
  using Source = std::function<bool(Slot&)>;

  /// The interval loop both overloads run, over a source of `available`
  /// samples.
  WorkloadResult run(std::size_t available, const Source& next);
  /// Load the next interval into `slot` and map it; false at the end.
  bool fetch(const Source& next, Slot& slot);
  /// Add interval t's load from its fetched slot.
  void account(std::size_t t, const Slot& slot, WorkloadResult& result);

  const SpectralMesh* mesh_;
  const MeshPartition* partition_;
  Mapper* mapper_;
  WorkloadParams params_;
  ThreadPool* pool_;

  std::vector<Rank> prev_owners_;
  Buckets ghosts_;  // this interval's ghost lists, storage reused
};

}  // namespace picp
