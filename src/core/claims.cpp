#include "core/claims.hpp"

#include <algorithm>

#include "mapping/bin_mapper.hpp"
#include "mapping/mapper.hpp"
#include "trace/trace_reader.hpp"
#include "util/timer.hpp"

namespace picp::claims {

WorkloadResult mapping_workload(const SpectralMesh& mesh,
                                const std::string& trace_path, Rank ranks,
                                const std::string& mapper_kind,
                                double filter_size) {
  const MeshPartition partition = rcb_partition(mesh, ranks);
  const auto mapper = make_mapper(mapper_kind, mesh, partition, filter_size);
  WorkloadParams params;
  params.compute_ghosts = false;
  params.compute_comm = false;
  WorkloadGenerator generator(mesh, partition, *mapper, params);
  TraceReader trace(trace_path);
  return generator.generate(trace);
}

std::map<Rank, std::vector<std::int64_t>> peak_series(
    const SpectralMesh& mesh, const std::string& trace_path,
    const std::vector<Rank>& rank_counts, const std::string& mapper_kind,
    double filter_size) {
  std::map<Rank, std::vector<std::int64_t>> peaks;
  for (const Rank ranks : rank_counts) {
    const WorkloadResult workload =
        mapping_workload(mesh, trace_path, ranks, mapper_kind, filter_size);
    peaks[ranks] = peak_per_interval(workload.comp_real);
  }
  return peaks;
}

ScalingSplit scaling_split(
    const std::map<Rank, std::vector<std::int64_t>>& peaks, Rank base) {
  ScalingSplit split;
  const auto base_it = peaks.find(base);
  if (base_it == peaks.end()) return split;
  const std::vector<std::int64_t>& base_peaks = base_it->second;
  split.num_intervals = base_peaks.size();
  split.split_index = split.num_intervals;

  const auto next_it = std::next(base_it);
  if (next_it == peaks.end()) return split;
  for (std::size_t t = 0; t < split.num_intervals; ++t) {
    if (next_it->second[t] < base_peaks[t]) {
      split.split_index = t;
      break;
    }
  }
  for (std::size_t t = 0; t < split.num_intervals; ++t) {
    bool identical = true;
    for (auto it = std::next(next_it); it != peaks.end(); ++it)
      if (it->second[t] != next_it->second[t]) {
        identical = false;
        break;
      }
    if (identical) ++split.identical_above;
  }
  return split;
}

UtilizationClaim utilization_claim(const CompMatrix& comp) {
  UtilizationClaim claim;
  claim.stats = utilization(comp);
  claim.idle_pct = 100.0 * (1.0 - claim.stats.ever_active_fraction);
  claim.resource_utilization_pct = 100.0 * claim.stats.mean_active_fraction;
  return claim;
}

BinGrowth relaxed_bin_growth(const std::string& trace_path,
                             double filter_size, std::size_t stride) {
  if (stride == 0) stride = 1;
  BinGrowth growth;
  BinMapper relaxed(1, filter_size, BinTree::kUnlimitedBins);
  TraceReader trace(trace_path);
  TraceSample sample;
  std::vector<Rank> owners;
  std::size_t index = 0;
  double prev_volume = 0.0;
  while (trace.read_next(sample)) {
    if (index++ % stride != 0) continue;
    relaxed.map(sample.positions, owners);
    const std::int64_t bins = relaxed.num_partitions();
    const double volume = relaxed.tree().root_bounds().volume();
    if (growth.bins.empty()) growth.first_bins = bins;
    growth.iterations.push_back(sample.iteration);
    growth.bins.push_back(bins);
    growth.volumes.push_back(volume);
    growth.max_bins = std::max(growth.max_bins, bins);
    if (volume + 1e-12 < prev_volume) growth.volume_monotone = false;
    prev_volume = volume;
  }
  return growth;
}

void MapeSummary::add(const ValidationReport& report) {
  for (const KernelAccuracy& k : report.kernels) {
    weighted_mape_ += k.mape * static_cast<double>(k.samples);
    aggregate_sum_ += k.aggregate_mape;
    if (k.samples >= kMinPeakRecords) peak_ = std::max(peak_, k.mape);
    samples_ += k.samples;
    ++kernels_;
  }
}

double MapeSummary::record_mape() const {
  return samples_ == 0 ? 0.0
                       : weighted_mape_ / static_cast<double>(samples_);
}

double MapeSummary::aggregate_mape() const {
  return kernels_ == 0 ? 0.0
                       : aggregate_sum_ / static_cast<double>(kernels_);
}

double peak_ratio(std::int64_t element_peak, std::int64_t bin_peak) {
  return static_cast<double>(element_peak) /
         static_cast<double>(std::max<std::int64_t>(1, bin_peak));
}

double time_workload_generation(const SpectralMesh& mesh,
                                const std::string& trace_path, Rank ranks,
                                const std::string& mapper_kind,
                                double filter_size, bool with_ghosts,
                                WorkloadResult* out) {
  const MeshPartition partition = rcb_partition(mesh, ranks);
  const auto mapper = make_mapper(mapper_kind, mesh, partition, filter_size);
  WorkloadParams params;
  params.ghost_radius = filter_size;
  params.compute_ghosts = with_ghosts;
  params.compute_comm = with_ghosts;
  WorkloadGenerator generator(mesh, partition, *mapper, params);
  TraceReader trace(trace_path);
  const Stopwatch watch;
  WorkloadResult workload = generator.generate(trace);
  const double seconds = watch.seconds();
  if (out != nullptr) *out = std::move(workload);
  return seconds;
}

}  // namespace picp::claims
