#include "workload/comm_matrix.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace picp {

CommMatrix::CommMatrix(Rank num_ranks, std::size_t num_intervals)
    : num_ranks_(num_ranks), num_intervals_(num_intervals),
      slices_(num_intervals) {
  PICP_REQUIRE(num_ranks > 0, "CommMatrix needs at least one rank");
}

void CommMatrix::add(Rank from, Rank to, std::size_t t, std::int64_t count) {
  PICP_REQUIRE(t < num_intervals_, "interval out of range");
  PICP_REQUIRE(from >= 0 && from < num_ranks_ && to >= 0 && to < num_ranks_,
               "rank out of range");
  if (count == 0) return;
  slices_[t][key(from, to)] += count;
}

std::int64_t CommMatrix::at(Rank from, Rank to, std::size_t t) const {
  const auto& slice = slices_[t];
  const auto it = slice.find(key(from, to));
  return it == slice.end() ? 0 : it->second;
}

std::vector<CommMatrix::Transfer> CommMatrix::interval_transfers(
    std::size_t t) const {
  std::vector<Transfer> out;
  out.reserve(slices_[t].size());
  for (const auto& [k, count] : slices_[t]) {
    const Rank from = static_cast<Rank>(k / static_cast<std::uint64_t>(num_ranks_));
    const Rank to = static_cast<Rank>(k % static_cast<std::uint64_t>(num_ranks_));
    out.push_back(Transfer{from, to, count});
  }
  std::sort(out.begin(), out.end(), [](const Transfer& a, const Transfer& b) {
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  });
  return out;
}

std::int64_t CommMatrix::interval_volume(std::size_t t) const {
  std::int64_t total = 0;
  for (const auto& [k, count] : slices_[t]) total += count;
  return total;
}

std::size_t CommMatrix::interval_pairs(std::size_t t) const {
  return slices_[t].size();
}

std::int64_t CommMatrix::sent_by(Rank r, std::size_t t) const {
  std::int64_t total = 0;
  for (const auto& [k, count] : slices_[t])
    if (static_cast<Rank>(k / static_cast<std::uint64_t>(num_ranks_)) == r)
      total += count;
  return total;
}

std::int64_t CommMatrix::received_by(Rank r, std::size_t t) const {
  std::int64_t total = 0;
  for (const auto& [k, count] : slices_[t])
    if (static_cast<Rank>(k % static_cast<std::uint64_t>(num_ranks_)) == r)
      total += count;
  return total;
}

void CommMatrix::tally_received(std::size_t t,
                                std::vector<std::int64_t>& received) const {
  PICP_REQUIRE(t < num_intervals_, "interval out of range");
  received.assign(static_cast<std::size_t>(num_ranks_), 0);
  for (const auto& [k, count] : slices_[t])
    received[k % static_cast<std::uint64_t>(num_ranks_)] += count;
}

std::int64_t CommMatrix::total_volume() const {
  std::int64_t total = 0;
  for (std::size_t t = 0; t < num_intervals_; ++t) total += interval_volume(t);
  return total;
}

}  // namespace picp
