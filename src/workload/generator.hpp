#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <memory>

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
  /// Worker threads for the ghost search (the generator's dominant cost);
  /// 0 or 1 = serial. Results are bit-identical for any thread count.
  std::size_t threads = 0;
  /// Request budget, checked between intervals so an over-budget
  /// generation unwinds with DeadlineExceeded instead of running to the
  /// end of the trace. Default: unlimited (no behavior change).
  Deadline deadline;
};

/// Everything the Dynamic Workload Generator produces for one
/// (trace, mapper, processor count) combination.
struct WorkloadResult {
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
void accumulate_interval_workload(
    const SpectralMesh& mesh, const MeshPartition& partition,
    std::span<const Vec3> positions, std::span<const Rank> owners,
    std::span<const Rank> prev_owners, const WorkloadParams& params,
    std::size_t t, WorkloadResult& result);

/// The paper's Dynamic Workload Generator (§II-A): replays a particle trace
/// through a particle-mapping algorithm to synthesize the per-processor
/// computation and communication load for any processor count, without
/// running the application.
///
/// Space complexity is O(num_particles + R): the trace is streamed one
/// sample at a time and only the previous interval's ownership is retained.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const SpectralMesh& mesh, const MeshPartition& partition,
                    Mapper& mapper, const WorkloadParams& params);

  /// Stream an on-disk trace (rewinds it first).
  WorkloadResult generate(TraceReader& trace);

  /// In-memory samples (tests, small studies).
  WorkloadResult generate(std::span<const TraceSample> samples);

 private:
  void process_interval(std::size_t t, std::uint64_t iteration,
                        std::span<const Vec3> positions,
                        WorkloadResult& result);

  const SpectralMesh* mesh_;
  const MeshPartition* partition_;
  Mapper* mapper_;
  WorkloadParams params_;
  std::unique_ptr<ThreadPool> pool_;  // ghost-search workers

  std::vector<Rank> owners_;
  std::vector<Rank> prev_owners_;
};

}  // namespace picp
