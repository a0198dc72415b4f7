#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mapping/mapper.hpp"
#include "mesh/partition.hpp"
#include "mesh/spectral_mesh.hpp"
#include "picsim/instrumentation.hpp"
#include "picsim/sim_config.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace picp {

/// Everything a proxy-application run produces for the prediction framework.
struct SimResult {
  /// Instrumented per-(kernel, rank, interval) timings (empty unless
  /// config.measure) — the stand-in for profiling the real app on the
  /// target system.
  KernelTimings timings;
  /// In-situ per-interval workload, counted by the application itself with
  /// the same accounting the generator uses — ground truth for validating
  /// the Dynamic Workload Generator (the paper validated Fig 5 this way).
  WorkloadResult actual;
  /// Particle state after the final iteration, exposed so callers can
  /// verify bit-exact invariants (e.g. thread-count independence).
  std::vector<Vec3> final_positions;
  std::vector<Vec3> final_velocities;
  /// Wall-clock cost of the run, split into physics and instrumentation
  /// (the §II "running the app is ~3 orders costlier" comparison).
  double wall_seconds = 0.0;
  double measure_seconds = 0.0;
  std::uint64_t trace_samples = 0;
  /// First iteration this run executed (non-zero after --resume).
  std::int64_t start_iteration = 0;
  /// True when the run stopped early via RunOptions::abort_after_iterations
  /// (crash simulation) — the trace was left unsealed.
  bool aborted = false;
};

/// Per-run options orthogonal to the SimConfig.
struct RunOptions {
  /// Continue from `<trace>.ckpt` instead of starting at iteration zero.
  /// The checkpointed configuration fingerprint must match; the resumed
  /// run's trace is byte-identical to an uninterrupted run's.
  bool resume = false;
  /// Testing / crash-drill hook: stop after this many iterations have
  /// completed, leaving the unsealed trace `.part` and the last checkpoint
  /// on disk exactly as a crash would (no footer, no final seal). Negative
  /// = run to completion.
  std::int64_t abort_after_iterations = -1;
};

/// The CMT-nek proxy: a multi-phase PIC solver over the spectral-element
/// mesh whose particles are explosively dispersed by the analytic airblast
/// gas field. Executes the full PIC solver loop each iteration, writes the
/// particle trace, and (optionally) measures every kernel on every virtual
/// rank at sampled intervals.
///
/// With `config.threads != 1` the solver loop, collision-grid rebuilds and
/// the in-situ workload accounting (its filings by rank, whose lists
/// measurement reads, and its tally) run on an internal ThreadPool, split
/// by `parallel_for`'s rule. Every parallel phase writes only disjoint
/// per-particle or per-rank slots and every merge is performed in
/// deterministic chunk order, so the trace, the workload accounting, and
/// the final particle state are bit-identical for any thread count.
class SimDriver {
 public:
  explicit SimDriver(const SimConfig& config);

  /// Run the simulation. Writes a trace when `trace_path` is non-empty.
  /// With `config.checkpoint_every > 0` the run periodically fsyncs the
  /// partial trace and atomically writes `<trace_path>.ckpt`;
  /// `options.resume` picks the run back up from that checkpoint.
  SimResult run(const std::string& trace_path = "",
                const RunOptions& options = {});

  const SimConfig& config() const { return config_; }
  const SpectralMesh& mesh() const { return mesh_; }
  const MeshPartition& partition() const { return partition_; }

  /// Worker threads the driver will use (1 when running serial).
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }

 private:
  SimConfig config_;
  SpectralMesh mesh_;
  MeshPartition partition_;
  std::unique_ptr<ThreadPool> pool_;  // null when config.threads == 1
};

}  // namespace picp
