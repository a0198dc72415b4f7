#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>

#include "bsst/trace_sim.hpp"
#include "core/predictor.hpp"
#include "mesh/spectral_mesh.hpp"
#include "model/model_set.hpp"
#include "trace/trace_reader.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace picp {

/// One target-system prediction request: the paper's configuration-file
/// inputs (system configuration = processor count; application
/// configuration = mapping algorithm and problem parameters).
struct PredictionConfig {
  std::string mapper_kind = "bin";
  Rank num_ranks = 1044;
  /// Projection filter size (ghost radius + bin threshold).
  double filter_size = 0.023;
  NetworkParams network;
  /// Workload-generation tuning (strides / interval caps for sweeps).
  std::size_t max_intervals = static_cast<std::size_t>(-1);
  std::size_t interval_stride = 1;
  bool compute_ghosts = true;
  bool compute_comm = true;
  /// Per-request budget, checked at stage boundaries (partition, mapper,
  /// per-interval generation, simulation). NOT part of any cache
  /// fingerprint — two requests for the same artifact with different
  /// budgets are the same artifact.
  Deadline deadline;
};

/// Everything a full prediction produces.
struct PredictionOutcome {
  WorkloadResult workload;
  SimReport sim;
  double workload_gen_seconds = 0.0;
  double sim_seconds = 0.0;
};

/// The end-to-end prediction framework (paper Fig 2): particle trace +
/// configuration → Dynamic Workload Generator → performance models →
/// system-level simulation → predicted application performance. One
/// pipeline instance serves any number of target processor counts from the
/// same trace — the paper's central "single trace, any R" property.
///
/// Generation splits each interval's ghost search and tally over the
/// pipeline's own pool of `threads` workers (0: hardware concurrency; 1: no
/// pool, every loop inline). The pool starts on the first generation, not
/// at construction, and concurrent generations share it.
class PredictionPipeline {
 public:
  PredictionPipeline(const SpectralMesh& mesh, ModelSet models,
                     std::size_t threads = 0);

  /// Workload generation only (no performance models needed) — enough for
  /// the scalability / algorithm-evaluation studies (Figs 1, 5, 6, 8, 9).
  WorkloadResult generate_workload(TraceReader& trace,
                                   const PredictionConfig& config) const;

  /// Models + trace-driven DES over an already-generated workload. Touches
  /// no trace and shares nothing mutable, so any number of threads may
  /// simulate concurrently against cached WorkloadResults — the serving
  /// hot path (`src/serve`), and the second stage of predict().
  SimReport simulate_workload(const WorkloadResult& workload,
                              const PredictionConfig& config) const;

  /// Full prediction: workload + models + trace-driven DES. Exactly
  /// generate_workload() followed by simulate_workload() — the one-shot CLI
  /// and the caching daemon run the same code, just with different
  /// workload reuse.
  PredictionOutcome predict(TraceReader& trace,
                            const PredictionConfig& config) const;

  const SpectralMesh& mesh() const { return *mesh_; }
  const ModelSet& models() const { return models_; }
  /// Workers generation splits over (1 when there is no pool).
  std::size_t threads() const;
  /// The pool generation splits over, started on the first call; null when
  /// threads() == 1.
  ThreadPool* pool() const;

 private:
  const SpectralMesh* mesh_;
  ModelSet models_;
  std::size_t threads_;  // as passed: 0 is resolved on use
  mutable std::once_flag pool_started_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace picp
