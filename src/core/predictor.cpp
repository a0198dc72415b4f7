#include "core/predictor.hpp"

#include <algorithm>
#include <string>

#include "core/features.hpp"
#include "util/error.hpp"

namespace picp {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

}  // namespace

Predictor::Predictor(const ModelSet& models, double filter_size)
    : models_(&models), filter_size_(filter_size) {
  PICP_REQUIRE(filter_size > 0.0, "filter size must be positive");
  for (const std::string& name : models.kernels()) {
    const Kernel k = kernel_from_name(name);
    const std::vector<std::string>& listed = models.features_of(name);
    const std::vector<std::string> expected = kernel_features(k);
    PICP_REQUIRE(listed == expected,
                 "model for kernel " + name + " lists features " +
                     join(listed) + ", but the predictor feeds " +
                     join(expected));
    kernel_models_[static_cast<std::size_t>(k)] = &models.model_of(name);
  }
}

double Predictor::predict_kernel(Kernel k, const WorkloadResult& workload,
                                 Rank rank, std::size_t interval) const {
  const PerfModel* model = kernel_models_[static_cast<std::size_t>(k)];
  PICP_REQUIRE(model != nullptr,
               std::string("no model for kernel: ") + kernel_name(k));
  const std::int64_t received =
      k == Kernel::kMigrate ? workload.comm_real.received_by(rank, interval)
                            : 0;
  FeatureBuffer buffer{};
  return std::max(0.0, model->evaluate(layout_features(
                           k, workload, rank, interval, filter_size_,
                           received, buffer)));
}

std::vector<double> Predictor::compute_table(
    const WorkloadResult& workload) const {
  const auto r_count = static_cast<std::size_t>(workload.num_ranks);
  const std::size_t t_count = workload.num_intervals();
  std::vector<double> table(r_count * t_count, 0.0);
  std::vector<std::int64_t> received;
  FeatureBuffer buffer{};
  for (std::size_t t = 0; t < t_count; ++t) {
    workload.comm_real.tally_received(t, received);
    for (Rank r = 0; r < workload.num_ranks; ++r) {
      const std::int64_t arrivals = received[static_cast<std::size_t>(r)];
      double total = 0.0;
      for (int k = 0; k < kNumKernels; ++k) {
        const PerfModel* model = kernel_models_[static_cast<std::size_t>(k)];
        if (model == nullptr) continue;
        total += std::max(0.0, model->evaluate(layout_features(
                                   static_cast<Kernel>(k), workload, r, t,
                                   filter_size_, arrivals, buffer)));
      }
      table[t * r_count + static_cast<std::size_t>(r)] = total;
    }
  }
  return table;
}

TraceSimInput Predictor::sim_input(const WorkloadResult& workload,
                                   const NetworkParams& network) const {
  TraceSimInput input;
  input.num_ranks = workload.num_ranks;
  input.num_intervals = workload.num_intervals();
  input.compute_seconds = compute_table(workload);
  input.comm_real = &workload.comm_real;
  input.comm_ghost = &workload.comm_ghost;
  input.network = network;
  return input;
}

}  // namespace picp
