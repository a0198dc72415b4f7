#include "workload/comm_matrix.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace picp {

CommMatrix::CommMatrix(Rank num_ranks, std::size_t num_intervals)
    : num_ranks_(num_ranks), num_intervals_(num_intervals),
      intervals_(num_intervals) {
  PICP_REQUIRE(num_ranks > 0, "CommMatrix needs at least one rank");
}

void CommMatrix::add(Rank from, Rank to, std::size_t t, std::int64_t count) {
  PICP_REQUIRE(t < num_intervals_, "interval out of range");
  PICP_REQUIRE(from >= 0 && from < num_ranks_ && to >= 0 && to < num_ranks_,
               "rank out of range");
  if (count == 0) return;
  std::vector<Transfer>& pairs = intervals_[t];
  const auto before = [](const Transfer& x, const Transfer& y) {
    return std::pair(x.from, x.to) < std::pair(y.from, y.to);
  };
  const Transfer added{from, to, count};
  if (pairs.empty() || before(pairs.back(), added)) {
    pairs.push_back(added);
    return;
  }
  // The last pair does not sort before this one, so the search lands on an
  // entry.
  const auto it = std::lower_bound(pairs.begin(), pairs.end(), added, before);
  if (before(added, *it))
    pairs.insert(it, added);
  else
    it->count += count;
}

std::span<const CommMatrix::Transfer> CommMatrix::interval_transfers(
    std::size_t t) const {
  PICP_REQUIRE(t < num_intervals_, "interval out of range");
  return intervals_[t];
}

std::int64_t CommMatrix::interval_volume(std::size_t t) const {
  std::int64_t total = 0;
  for (const Transfer& transfer : interval_transfers(t))
    total += transfer.count;
  return total;
}

std::int64_t CommMatrix::received_by(Rank r, std::size_t t) const {
  std::int64_t total = 0;
  for (const Transfer& transfer : interval_transfers(t))
    if (transfer.to == r) total += transfer.count;
  return total;
}

void CommMatrix::tally_received(std::size_t t,
                                std::vector<std::int64_t>& received) const {
  const auto transfers = interval_transfers(t);
  received.assign(static_cast<std::size_t>(num_ranks_), 0);
  for (const Transfer& transfer : transfers)
    received[static_cast<std::size_t>(transfer.to)] += transfer.count;
}

std::int64_t CommMatrix::total_volume() const {
  std::int64_t total = 0;
  for (std::size_t t = 0; t < num_intervals_; ++t) total += interval_volume(t);
  return total;
}

}  // namespace picp
