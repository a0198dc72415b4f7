#include "bsst/trace_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bsst/network_model.hpp"
#include "support/des_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

TraceSimInput uniform_input(Rank ranks, std::size_t intervals,
                            double compute) {
  TraceSimInput input;
  input.num_ranks = ranks;
  input.num_intervals = intervals;
  input.compute_seconds.assign(
      static_cast<std::size_t>(ranks) * intervals, compute);
  input.network.alpha = 1e-6;
  input.network.beta = 1e9;
  return input;
}

TEST(TraceSim, UniformComputeNoCommIsComputePlusBarriers) {
  const auto input = uniform_input(4, 5, 0.01);
  const SimReport report = run_trace_simulation(input);
  const NetworkModel net(input.network);
  const double expected = 5 * (0.01 + net.collective_time(4));
  EXPECT_NEAR(report.total_seconds, expected, 1e-12);
  EXPECT_NEAR(report.critical_path_seconds, 0.05, 1e-12);
  for (const double busy : report.rank_busy_seconds)
    EXPECT_NEAR(busy, 0.05, 1e-12);
}

TEST(TraceSim, SlowestRankDominatesEachInterval) {
  TraceSimInput input = uniform_input(3, 2, 0.0);
  // Interval 0: rank 1 slow; interval 1: rank 2 slow.
  input.compute_seconds = {0.001, 0.010, 0.002,   // t=0
                           0.003, 0.001, 0.020};  // t=1
  const SimReport report = run_trace_simulation(input);
  const NetworkModel net(input.network);
  const double expected = 0.010 + 0.020 + 2 * net.collective_time(3);
  EXPECT_NEAR(report.total_seconds, expected, 1e-12);
  EXPECT_NEAR(report.critical_path_seconds, 0.030, 1e-15);
}

TEST(TraceSim, MessagesDelayReceivers) {
  TraceSimInput input = uniform_input(2, 1, 0.0);
  input.compute_seconds = {0.010, 0.001};  // rank 0 slow, rank 1 fast
  CommMatrix comm(2, 1);
  comm.add(0, 1, 0, 1000);  // rank 0 sends 1000 particles to rank 1
  input.comm_real = &comm;
  const SimReport report = run_trace_simulation(input);
  const NetworkModel net(input.network);
  // Rank 1 cannot finish before rank 0's message arrives at
  // 0.010 + msg_time(1000 * bytes_per_particle).
  const double msg =
      net.message_time(1000 * input.network.bytes_per_particle);
  const double expected = 0.010 + msg + net.collective_time(2);
  EXPECT_NEAR(report.total_seconds, expected, 1e-12);
}

TEST(TraceSim, GhostAndRealMessagesToSameDstMerge) {
  TraceSimInput input = uniform_input(2, 1, 0.001);
  CommMatrix real(2, 1), ghost(2, 1);
  real.add(0, 1, 0, 10);
  ghost.add(0, 1, 0, 20);
  input.comm_real = &real;
  input.comm_ghost = &ghost;
  const SimReport report = run_trace_simulation(input);
  const NetworkModel net(input.network);
  const double bytes = 10 * input.network.bytes_per_particle +
                       20 * input.network.bytes_per_ghost;
  const double expected =
      0.001 + net.message_time(bytes) + net.collective_time(2);
  EXPECT_NEAR(report.total_seconds, expected, 1e-12);
}

TEST(TraceSim, IntervalEndsAreMonotone) {
  TraceSimInput input = uniform_input(8, 10, 1e-4);
  CommMatrix comm(8, 10);
  for (std::size_t t = 1; t < 10; ++t)
    comm.add(static_cast<Rank>(t % 8), static_cast<Rank>((t + 3) % 8), t,
             50);
  input.comm_real = &comm;
  const SimReport report = run_trace_simulation(input);
  for (std::size_t t = 1; t < 10; ++t)
    EXPECT_GT(report.interval_end[t], report.interval_end[t - 1]);
  EXPECT_DOUBLE_EQ(report.total_seconds, report.interval_end.back());
}

TEST(TraceSim, SingleRankNoBarrierCost) {
  const auto input = uniform_input(1, 3, 0.002);
  const SimReport report = run_trace_simulation(input);
  EXPECT_NEAR(report.total_seconds, 0.006, 1e-12);
}

TEST(TraceSim, EventCountMatchesStructure) {
  const auto input = uniform_input(4, 2, 0.001);
  const SimReport report = run_trace_simulation(input);
  // Per interval per rank: start + compute-done + rank-done = 3 events.
  EXPECT_EQ(report.events, 4u * 2u * 3u);
}

TEST(TraceSim, CommBeyondIntervalsIgnored) {
  TraceSimInput input = uniform_input(2, 2, 0.001);
  CommMatrix comm(2, 5);  // more intervals than the sim runs
  comm.add(0, 1, 4, 100);
  input.comm_real = &comm;
  EXPECT_NO_THROW(run_trace_simulation(input));
}

TEST(TraceSim, InputValidation) {
  TraceSimInput input = uniform_input(2, 2, 0.0);
  input.compute_seconds.pop_back();
  EXPECT_THROW(run_trace_simulation(input), Error);
  TraceSimInput empty;
  EXPECT_THROW(run_trace_simulation(empty), Error);
  TraceSimInput bad = uniform_input(2, 1, 0.0);
  CommMatrix wrong(3, 1);
  bad.comm_real = &wrong;
  EXPECT_THROW(run_trace_simulation(bad), Error);
}

/// Index of the first element whose bits differ (the common size when the
/// shorter is a prefix of the longer).
std::size_t first_difference(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() &&
         std::bit_cast<std::uint64_t>(a[i]) ==
             std::bit_cast<std::uint64_t>(b[i]))
    ++i;
  return i;
}

void expect_same_bits(const SimReport& got, const SimReport& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_seconds),
            std::bit_cast<std::uint64_t>(want.total_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.critical_path_seconds),
            std::bit_cast<std::uint64_t>(want.critical_path_seconds));
  EXPECT_EQ(got.events, want.events);
  ASSERT_EQ(got.interval_end.size(), want.interval_end.size());
  EXPECT_EQ(first_difference(got.interval_end, want.interval_end),
            want.interval_end.size());
  ASSERT_EQ(got.rank_busy_seconds.size(), want.rank_busy_seconds.size());
  EXPECT_EQ(first_difference(got.rank_busy_seconds, want.rank_busy_seconds),
            want.rank_busy_seconds.size());
}

// Seeded inputs up to offline_sweep's largest rank count and run length.
// Seeds cycle through four message mixes (none, migration only, ghosts
// only, both with shared pairs) crossed with up to 8, 200 or 5000
// transfers per interval and two link speeds; some tie compute times on a
// coarse grid, zero the latency, or hand in comm matrices longer than the
// run.
TEST(TraceSim, ClosedFormEqualsTheEventDrivenReferenceExactly) {
  constexpr Rank kRankCounts[] = {1, 2, 3, 7, 64, 500, 1044, 2088, 4176, 8352};
  std::size_t intervals_seen = 0;
  std::size_t message_bound = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    const bool largest = seed < 4;
    const Rank ranks =
        largest ? 8352 : kRankCounts[rng.uniform_below(std::size(kRankCounts))];
    const std::size_t intervals = largest ? 40 : 1 + rng.uniform_below(40);
    const std::uint64_t mix = seed % 4;  // bit 0: migration, bit 1: ghosts
    const bool ties = seed % 3 == 0;

    TraceSimInput input;
    input.num_ranks = ranks;
    input.num_intervals = intervals;
    input.network.alpha = seed % 5 == 0 ? 0.0 : 1.5e-6;
    input.network.beta = seed / 4 % 2 == 0 ? 1e9 : 1e10;
    input.compute_seconds.resize(static_cast<std::size_t>(ranks) * intervals);
    for (double& c : input.compute_seconds)
      c = ties ? 1e-4 * static_cast<double>(rng.uniform_below(4))
               : rng.uniform(0.0, 1e-3);

    const std::size_t matrix_intervals = intervals + (seed % 5 == 1 ? 3 : 0);
    CommMatrix real(ranks, matrix_intervals);
    CommMatrix ghost(ranks, matrix_intervals);
    const auto any_rank = [&] {
      return static_cast<Rank>(
          rng.uniform_below(static_cast<std::uint64_t>(ranks)));
    };
    const auto any_count = [&] {
      return static_cast<std::int64_t>(1 + rng.uniform_below(1000));
    };
    constexpr std::uint64_t kMaxTransfers[] = {5000, 200, 8};
    const std::uint64_t max_transfers =
        mix == 0 ? 0 : kMaxTransfers[seed / 4 % 3];
    for (std::size_t t = 0; t < matrix_intervals; ++t) {
      const std::uint64_t transfers = rng.uniform_below(max_transfers + 1);
      for (std::uint64_t k = 0; k < transfers; ++k) {
        const Rank from = any_rank();
        const Rank to = any_rank();
        if (mix == 1) real.add(from, to, t, any_count());
        if (mix == 2) ghost.add(from, to, t, any_count());
        if (mix != 3) continue;
        // Both: a third of the pairs carry migrations and ghosts, a third
        // only migrations, a third only ghosts.
        if (k % 3 != 2) real.add(from, to, t, any_count());
        if (k % 3 != 1) ghost.add(from, to, t, any_count());
      }
    }
    input.comm_real = (mix & 1) != 0 ? &real : nullptr;
    input.comm_ghost = (mix & 2) != 0 ? &ghost : nullptr;

    const SimReport closed = run_trace_simulation(input);
    expect_same_bits(closed, testing::run_des_reference(input));

    // Count the intervals a message, not compute, ended, so the inputs are
    // known to exercise both regimes.
    const double sync = NetworkModel(input.network).collective_time(ranks);
    double start = 0.0;
    const auto r_count = static_cast<std::size_t>(ranks);
    for (std::size_t t = 0; t < intervals; ++t) {
      const double* compute = input.compute_seconds.data() + t * r_count;
      double slowest = 0.0;
      for (std::size_t r = 0; r < r_count; ++r)
        slowest = std::max(slowest, start + compute[r]);
      if (closed.interval_end[t] != slowest + sync) ++message_bound;
      start = closed.interval_end[t];
      ++intervals_seen;
    }
  }
  EXPECT_GT(message_bound, intervals_seen / 4);
  EXPECT_GT(intervals_seen - message_bound, intervals_seen / 4);
}

TEST(TraceSim, RejectsNegativeOrNaNComputeAndNegativeMessageTimes) {
  const auto expect_rejected = [](const TraceSimInput& input) {
    EXPECT_THROW(run_trace_simulation(input), Error);
    EXPECT_THROW(testing::run_des_reference(input), Error);
  };
  TraceSimInput negative = uniform_input(3, 2, 0.001);
  negative.compute_seconds[4] = -1e-9;
  expect_rejected(negative);

  TraceSimInput nan = uniform_input(3, 2, 0.001);
  nan.compute_seconds[5] = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan);

  // -1000 particles of 96 bytes over 1 GB/s: 1 us of latency less 96 us.
  TraceSimInput backwards = uniform_input(3, 2, 0.001);
  CommMatrix comm(3, 2);
  comm.add(2, 0, 1, -1000);
  backwards.comm_real = &comm;
  expect_rejected(backwards);
}

}  // namespace
}  // namespace picp
