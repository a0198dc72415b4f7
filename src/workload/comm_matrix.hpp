#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/partition.hpp"

namespace picp {

/// The paper's Communication matrix P_comm: conceptually an R × R × T array
/// where entry (i, j, t) is the number of particles moving from processor i
/// to processor j between intervals t-1 and t. An R × R dense slice is
/// infeasible at the paper's scales (8352² × T entries), so each interval is
/// one list of (from, to, count) transfers, sorted by (from, to), with one
/// entry per communicating pair — particle migration touches few rank pairs
/// per interval. Readers walk the list as it is stored.
///
/// A pair that sorts after the interval's last one is appended, so a writer
/// that adds in (from, to) order, as the workload accounting does, pays O(1)
/// per pair. Any other pair is found by binary search and then incremented
/// or inserted, which costs O(pairs) for each new pair that arrives out of
/// order.
class CommMatrix {
 public:
  CommMatrix() = default;
  CommMatrix(Rank num_ranks, std::size_t num_intervals);

  Rank num_ranks() const { return num_ranks_; }
  std::size_t num_intervals() const { return num_intervals_; }

  /// Adds `count` particles moving from `from` to `to` at interval t. A zero
  /// count is a no-op; a pair whose counts sum to zero stays listed.
  void add(Rank from, Rank to, std::size_t t, std::int64_t count = 1);

  struct Transfer {
    Rank from;
    Rank to;
    std::int64_t count;
  };
  /// All transfers in an interval, sorted by (from, to), one per pair.
  std::span<const Transfer> interval_transfers(std::size_t t) const;

  /// Total particles moved in an interval.
  std::int64_t interval_volume(std::size_t t) const;
  /// Particles received by one rank in an interval.
  std::int64_t received_by(Rank r, std::size_t t) const;
  /// Every rank's receive-side arrivals at interval t, tallied in one walk
  /// of the list: afterwards received[r] == received_by(r, t). Resizes
  /// `received` to num_ranks(), so one buffer serves every interval.
  void tally_received(std::size_t t, std::vector<std::int64_t>& received) const;

  /// Total particles moved across the whole run.
  std::int64_t total_volume() const;

 private:
  Rank num_ranks_ = 0;
  std::size_t num_intervals_ = 0;
  std::vector<std::vector<Transfer>> intervals_;
};

}  // namespace picp
