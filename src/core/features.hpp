#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "picsim/instrumentation.hpp"
#include "picsim/kernels.hpp"
#include "workload/generator.hpp"

namespace picp {

/// Canonical workload features each kernel's performance model consumes
/// (paper §II-B: models are expressed in workload parameters such as N_p,
/// N_gp per processor).
///
///   interpolate, eq_solve, push : {np}
///   project, create_ghost       : {np, ngp, filter}
///   migrate                     : {np, nmove}  (scan owned + pack movers)
///   fluid                       : {nel}
std::vector<std::string> kernel_features(Kernel k);

/// Feature vector for one (rank, interval) from an instrumented record
/// (training side — the features were recorded during measurement).
std::vector<double> features_from_record(Kernel k, const TimingRecord& rec);

/// Most features any kernel's model consumes (project, create_ghost).
inline constexpr std::size_t kMaxKernelFeatures = 3;
using FeatureBuffer = std::array<double, kMaxKernelFeatures>;

/// The prediction side's one feature layout: writes kernel k's features for
/// one (rank, interval) of generated workload into `out`, in
/// kernel_features(k) order, and returns the written prefix. `received` is
/// the rank's receive-side migration arrivals in that interval and is read
/// by migrate only; the caller tallies it (CommMatrix::received_by for one
/// cell, CommMatrix::tally_received for a whole interval), so filling a
/// table never rescans the communication slice per cell.
std::span<const double> layout_features(Kernel k,
                                        const WorkloadResult& workload,
                                        Rank rank, std::size_t interval,
                                        double filter, std::int64_t received,
                                        FeatureBuffer& out);

/// Feature vector for one (rank, interval) from generated workload
/// (prediction side — the features come from the Dynamic Workload
/// Generator, never from the application).
std::vector<double> features_from_workload(Kernel k,
                                           const WorkloadResult& workload,
                                           Rank rank, std::size_t interval,
                                           double filter);

}  // namespace picp
