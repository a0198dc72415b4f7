#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mesh/partition.hpp"

namespace picp {

/// The paper's Communication matrix P_comm: conceptually an R × R × T array
/// where entry (i, j, t) is the number of particles moving from processor i
/// to processor j between intervals t-1 and t. An R × R dense slice is
/// infeasible at the paper's scales (8352² × T entries), so each interval is
/// stored sparsely keyed by the (source, destination) pair — particle
/// migration touches few rank pairs per interval.
class CommMatrix {
 public:
  CommMatrix() = default;
  CommMatrix(Rank num_ranks, std::size_t num_intervals);

  Rank num_ranks() const { return num_ranks_; }
  std::size_t num_intervals() const { return num_intervals_; }

  void add(Rank from, Rank to, std::size_t t, std::int64_t count = 1);

  /// Particles moving from `from` to `to` at interval t (0 if none).
  std::int64_t at(Rank from, Rank to, std::size_t t) const;

  /// All transfers in an interval as (from, to, count) triples,
  /// deterministically ordered.
  struct Transfer {
    Rank from;
    Rank to;
    std::int64_t count;
  };
  std::vector<Transfer> interval_transfers(std::size_t t) const;

  /// Total particles moved in an interval.
  std::int64_t interval_volume(std::size_t t) const;
  /// Number of distinct communicating rank pairs in an interval.
  std::size_t interval_pairs(std::size_t t) const;
  /// Particles sent by / received by one rank in an interval.
  std::int64_t sent_by(Rank r, std::size_t t) const;
  std::int64_t received_by(Rank r, std::size_t t) const;
  /// Every rank's receive-side arrivals at interval t, tallied in one pass
  /// over the slice: afterwards received[r] == received_by(r, t). Resizes
  /// `received` to num_ranks(), so one buffer serves every interval.
  void tally_received(std::size_t t, std::vector<std::int64_t>& received) const;

  /// Total particles moved across the whole run.
  std::int64_t total_volume() const;

 private:
  std::uint64_t key(Rank from, Rank to) const {
    return static_cast<std::uint64_t>(from) *
               static_cast<std::uint64_t>(num_ranks_) +
           static_cast<std::uint64_t>(to);
  }

  Rank num_ranks_ = 0;
  std::size_t num_intervals_ = 0;
  std::vector<std::unordered_map<std::uint64_t, std::int64_t>> slices_;
};

}  // namespace picp
