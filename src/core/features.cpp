#include "core/features.hpp"

#include "util/error.hpp"

namespace picp {

std::vector<std::string> kernel_features(Kernel k) {
  switch (k) {
    case Kernel::kInterpolate:
    case Kernel::kEqSolve:
    case Kernel::kPush:
      return {"np"};
    case Kernel::kProject:
    case Kernel::kCreateGhost:
      return {"np", "ngp", "filter"};
    case Kernel::kMigrate:
      return {"np", "nmove"};
    case Kernel::kFluid:
      return {"nel"};
  }
  throw Error("unknown kernel");
}

std::vector<double> features_from_record(Kernel k, const TimingRecord& rec) {
  switch (k) {
    case Kernel::kInterpolate:
    case Kernel::kEqSolve:
    case Kernel::kPush:
      return {rec.np};
    case Kernel::kProject:
    case Kernel::kCreateGhost:
      return {rec.np, rec.ngp, rec.filter};
    case Kernel::kMigrate:
      return {rec.np, rec.nmove};
    case Kernel::kFluid:
      return {rec.nel};
  }
  throw Error("unknown kernel");
}

std::span<const double> layout_features(Kernel k,
                                        const WorkloadResult& workload,
                                        Rank rank, std::size_t interval,
                                        double filter, std::int64_t received,
                                        FeatureBuffer& out) {
  const auto np =
      static_cast<double>(workload.comp_real.at(rank, interval));
  switch (k) {
    case Kernel::kInterpolate:
    case Kernel::kEqSolve:
    case Kernel::kPush:
      out[0] = np;
      return {out.data(), 1};
    case Kernel::kProject:
    case Kernel::kCreateGhost:
      out[0] = np;
      out[1] = static_cast<double>(workload.comp_ghost.at(rank, interval));
      out[2] = filter;
      return {out.data(), 3};
    case Kernel::kMigrate:
      // The kernel scans every owned particle and packs the movers;
      // movers are receive-side arrivals, matching the instrumentation.
      out[0] = np;
      out[1] = static_cast<double>(received);
      return {out.data(), 2};
    case Kernel::kFluid:
      PICP_REQUIRE(static_cast<std::size_t>(rank) <
                       workload.elements_per_rank.size(),
                   "workload lacks element counts for the fluid model");
      out[0] = static_cast<double>(
          workload.elements_per_rank[static_cast<std::size_t>(rank)]);
      return {out.data(), 1};
  }
  throw Error("unknown kernel");
}

std::vector<double> features_from_workload(Kernel k,
                                           const WorkloadResult& workload,
                                           Rank rank, std::size_t interval,
                                           double filter) {
  const std::int64_t received =
      k == Kernel::kMigrate ? workload.comm_real.received_by(rank, interval)
                            : 0;
  FeatureBuffer buffer{};
  const auto features =
      layout_features(k, workload, rank, interval, filter, received, buffer);
  return {features.begin(), features.end()};
}

}  // namespace picp
