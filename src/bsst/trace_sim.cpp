#include "bsst/trace_sim.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace picp {

namespace {

/// Interval t's transfers of `matrix`, sorted by (from, to); none when the
/// matrix is absent or ends before t.
std::span<const CommMatrix::Transfer> transfers(const CommMatrix* matrix,
                                                std::size_t t) {
  if (matrix == nullptr || t >= matrix->num_intervals()) return {};
  return matrix->interval_transfers(t);
}

std::pair<Rank, Rank> pair_of(const CommMatrix::Transfer& transfer) {
  return {transfer.from, transfer.to};
}

double bytes(const CommMatrix::Transfer& transfer, double bytes_each) {
  return static_cast<double>(transfer.count) * bytes_each;
}

}  // namespace

SimReport run_trace_simulation(const TraceSimInput& input) {
  const telemetry::ScopedSpan span("des.run", "pipeline");
  PICP_REQUIRE(input.num_ranks > 0, "need at least one rank");
  PICP_REQUIRE(input.num_intervals > 0, "need at least one interval");
  const auto r_count = static_cast<std::size_t>(input.num_ranks);
  PICP_REQUIRE(input.compute_seconds.size() == input.num_intervals * r_count,
               "compute table size mismatch");
  for (const CommMatrix* matrix : {input.comm_real, input.comm_ghost})
    PICP_REQUIRE(matrix == nullptr || matrix->num_ranks() == input.num_ranks,
                 "comm matrix rank count mismatch");

  const NetworkModel net(input.network);
  const double sync = net.collective_time(input.num_ranks);
  const double per_particle = input.network.bytes_per_particle;
  const double per_ghost = input.network.bytes_per_ghost;

  SimReport report;
  report.interval_end.assign(input.num_intervals, 0.0);
  report.rank_busy_seconds.assign(r_count, 0.0);

  // finish[r]: when rank r has computed and received every message of the
  // current interval. Each sum below is formed exactly as the event-driven
  // form forms its event times, so the result is bit-identical to it.
  std::vector<double> finish(r_count);
  double start = 0.0;
  for (std::size_t t = 0; t < input.num_intervals; ++t) {
    const double* compute = input.compute_seconds.data() + t * r_count;
    double slowest_compute = 0.0;
    for (std::size_t r = 0; r < r_count; ++r) {
      PICP_REQUIRE(compute[r] >= 0.0, "compute time must be non-negative");
      finish[r] = start + compute[r];
      report.rank_busy_seconds[r] += compute[r];
      slowest_compute = std::max(slowest_compute, compute[r]);
    }
    report.critical_path_seconds += slowest_compute;

    // A message leaves when its sender's compute ends.
    std::uint64_t messages = 0;
    const auto send = [&](const CommMatrix::Transfer& transfer,
                          double message_bytes) {
      const double delay = net.message_time(message_bytes);
      PICP_REQUIRE(delay >= 0.0, "message time must be non-negative");
      double& arrival = finish[static_cast<std::size_t>(transfer.to)];
      arrival = std::max(
          arrival,
          (start + compute[static_cast<std::size_t>(transfer.from)]) + delay);
      ++messages;
    };
    // One packed message per (from, to) pair, migration bytes first: both
    // lists are sorted by pair, so a merge packs them.
    const auto real = transfers(input.comm_real, t);
    const auto ghost = transfers(input.comm_ghost, t);
    auto g = ghost.begin();
    for (const auto& m : real) {
      for (; g != ghost.end() && pair_of(*g) < pair_of(m); ++g)
        send(*g, bytes(*g, per_ghost));
      double packed = bytes(m, per_particle);
      if (g != ghost.end() && pair_of(*g) == pair_of(m))
        packed += bytes(*g++, per_ghost);
      send(m, packed);
    }
    for (; g != ghost.end(); ++g) send(*g, bytes(*g, per_ghost));

    const double slowest = *std::max_element(finish.begin(), finish.end());
    report.interval_end[t] = slowest + sync;
    start = report.interval_end[t];
    // Start, compute done and rank done per rank, plus one per message.
    report.events += 3 * r_count + messages;
  }
  report.total_seconds = report.interval_end.back();
  telemetry::registry().counter("des.events").add(report.events);
  return report;
}

}  // namespace picp
