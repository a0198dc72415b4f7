#pragma once

// Claim-evaluation library for the paper's per-experiment index (DESIGN.md):
// the metric computations behind Figs 1, 5-10, the §II gen-cost table, and
// the §IV-B optimal-processor-count rule, extracted from the bench/ binaries
// so that `bench/fig*` and the `claims` ctest tier compute identical numbers
// from identical runs. Everything is parameterized by trace path, rank
// ladder, and filter size: the benches drive it at paper scale, the claims
// tests at fixture scale.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/validation.hpp"
#include "mesh/partition.hpp"
#include "mesh/spectral_mesh.hpp"
#include "workload/generator.hpp"
#include "workload/workload_stats.hpp"

namespace picp::claims {

/// Generate the computation workload (no ghosts/comm) for one
/// (rank count, mapper kind) combination from a trace file — the shared
/// boilerplate of Figs 1, 5, 8 and 9.
WorkloadResult mapping_workload(const SpectralMesh& mesh,
                                const std::string& trace_path, Rank ranks,
                                const std::string& mapper_kind,
                                double filter_size);

/// Peak particles-per-processor series for each rank count (Fig 5's curves,
/// Fig 8's per-interval peaks), all under one mapper kind.
std::map<Rank, std::vector<std::int64_t>> peak_series(
    const SpectralMesh& mesh, const std::string& trace_path,
    const std::vector<Rank>& rank_counts, const std::string& mapper_kind,
    double filter_size);

/// Fig 5 shape summary over a peak_series result.
struct ScalingSplit {
  /// First interval where the next-larger configuration's peak drops below
  /// the base configuration's (== num_intervals when they never separate).
  std::size_t split_index = 0;
  /// Intervals on which every configuration above the base is identical.
  std::size_t identical_above = 0;
  std::size_t num_intervals = 0;
};
ScalingSplit scaling_split(
    const std::map<Rank, std::vector<std::int64_t>>& peaks, Rank base);

/// Fig 1b / Fig 9 utilization metrics of a computation matrix.
struct UtilizationClaim {
  UtilizationStats stats;
  double idle_pct = 0.0;                 // 100 * (1 - ever_active_fraction)
  double resource_utilization_pct = 0.0; // 100 * mean_active_fraction
};
UtilizationClaim utilization_claim(const CompMatrix& comp);

/// Fig 6 / Fig 10a: bins generated over a run with the processor-count cap
/// relaxed. `stride` subsamples the trace (Fig 10a uses 4 for speed).
struct BinGrowth {
  std::vector<std::uint64_t> iterations;
  std::vector<std::int64_t> bins;
  std::vector<double> volumes;   // particle boundary volume per interval
  std::int64_t first_bins = 0;
  std::int64_t max_bins = 0;     // == §IV-B optimal processor count
  bool volume_monotone = true;
};
BinGrowth relaxed_bin_growth(const std::string& trace_path,
                             double filter_size, std::size_t stride = 1);

/// Fig 7: grand MAPE accumulation across per-configuration validation
/// reports (sample-weighted per-record MAPE, mean per-kernel aggregate
/// MAPE, worst per-kernel MAPE).
struct MapeSummary {
  /// Fewest records above the floor for a kernel to set the worst-kernel
  /// peak: a kernel with one or two records reports timer noise, not its
  /// model. Every record still counts in both averages.
  static constexpr std::size_t kMinPeakRecords = 10;

  void add(const ValidationReport& report);
  double record_mape() const;     // paper's per-sample average
  double aggregate_mape() const;  // paper's 8.42% figure
  double peak_kernel_mape() const { return peak_; }
  std::size_t samples() const { return samples_; }
  std::size_t kernels() const { return kernels_; }

 private:
  double weighted_mape_ = 0.0;
  double aggregate_sum_ = 0.0;
  double peak_ = 0.0;
  std::size_t samples_ = 0;
  std::size_t kernels_ = 0;
};

/// Fig 8: element-to-bin peak-workload ratio (guards the zero-peak case).
double peak_ratio(std::int64_t element_peak, std::int64_t bin_peak);

/// §II gen-cost: wall time of one workload generation pass over the trace,
/// with or without ghost/communication computation. The generated workload
/// is returned through `out` when non-null (so callers can assert on it
/// without paying for a second pass).
double time_workload_generation(const SpectralMesh& mesh,
                                const std::string& trace_path, Rank ranks,
                                const std::string& mapper_kind,
                                double filter_size, bool with_ghosts,
                                WorkloadResult* out = nullptr);

}  // namespace picp::claims
