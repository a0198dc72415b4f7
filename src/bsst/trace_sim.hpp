#pragma once

#include <cstdint>
#include <vector>

#include "bsst/network_model.hpp"
#include "workload/comm_matrix.hpp"

namespace picp {

/// Inputs to the trace-driven system-level simulation: per-(rank, interval)
/// compute times (from the performance models applied to the generated
/// workload) plus the communication matrices (from the Dynamic Workload
/// Generator). This is the trace-based capability the paper describes as
/// being added to BE-SST (§II-C / §VI).
struct TraceSimInput {
  Rank num_ranks = 0;
  std::size_t num_intervals = 0;
  /// compute_seconds[t * num_ranks + r]: modeled kernel time of rank r in
  /// interval t.
  std::vector<double> compute_seconds;
  /// Particle-migration transfers (bytes_per_particle each); optional.
  const CommMatrix* comm_real = nullptr;
  /// Ghost-creation transfers (bytes_per_ghost each); optional.
  const CommMatrix* comm_ghost = nullptr;
  NetworkParams network;
};

/// Results of one system-level simulation.
struct SimReport {
  /// Predicted end-to-end time of the simulated phase.
  double total_seconds = 0.0;
  /// Barrier completion time of each interval.
  std::vector<double> interval_end;
  /// Per-rank total modeled compute time.
  std::vector<double> rank_busy_seconds;
  /// Sum over intervals of the slowest rank's compute (pure critical path,
  /// no communication) — a lower bound useful for diagnosing comm overhead.
  double critical_path_seconds = 0.0;
  /// Events the discrete-event form of this model dispatches: start,
  /// compute done and rank done for every rank in every interval, plus one
  /// per packed message.
  std::uint64_t events = 0;
};

/// Run the coarse-grained simulation: per interval, every processor
/// computes, exchanges the interval's migration/ghost messages over the
/// α-β interconnect, and synchronizes on a log-tree barrier before the next
/// interval begins (the BSP structure of the CMT-nek particle phase).
///
/// Links never contend, so the model is a max-plus recurrence, evaluated
/// directly. Interval t starts at S_t (S_0 = 0). Rank r finishes at the
/// latest of S_t + c[r,t] and, for each packed message s→r (one per pair,
/// migration bytes then ghost bytes), (S_t + c[s,t]) + message_time(bytes).
/// Interval t ends, and S_{t+1} begins, at the latest finish plus
/// collective_time(R). Throws picp::Error on a negative or NaN compute time
/// or a negative message time, as well as on malformed input.
SimReport run_trace_simulation(const TraceSimInput& input);

}  // namespace picp
