#pragma once

#include <array>
#include <vector>

#include "bsst/trace_sim.hpp"
#include "model/model_set.hpp"
#include "picsim/kernels.hpp"
#include "workload/generator.hpp"

namespace picp {

/// Applies the trained performance models to generated workload — the
/// framework's prediction step (the role of the paper's "python script" in
/// §IV-B, and the input producer for the Simulation Platform).
class Predictor {
 public:
  /// Resolves each kernel's model once. `models` must outlive the predictor
  /// and stay unmodified. Throws picp::Error naming the kernel when an entry
  /// names no known kernel or does not list exactly kernel_features(k):
  /// features are fed by position, so any other list would be misread.
  Predictor(const ModelSet& models, double filter_size);

  /// Predicted seconds of one kernel on one (rank, interval). Throws
  /// picp::Error naming both unless 0 <= rank < workload.num_ranks and
  /// interval < workload.num_intervals().
  double predict_kernel(Kernel k, const WorkloadResult& workload, Rank rank,
                        std::size_t interval) const;

  /// Per-(rank, interval) total particle-phase compute time (sum over all
  /// modeled kernels), laid out interval-major for the trace simulator.
  /// Costs O(R·T + Σ pairs): each interval's receives are tallied once.
  std::vector<double> compute_table(const WorkloadResult& workload) const;

  /// Assemble the full trace-simulation input (compute table + comm
  /// matrices + network) from generated workload.
  TraceSimInput sim_input(const WorkloadResult& workload,
                          const NetworkParams& network) const;

  const ModelSet& models() const { return *models_; }
  double filter_size() const { return filter_size_; }

 private:
  const ModelSet* models_;
  double filter_size_;
  /// Each kernel's model, indexed by Kernel; null where the set has none.
  std::array<const PerfModel*, kNumKernels> kernel_models_{};
};

}  // namespace picp
