#include "workload/comm_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

using Entry = std::tuple<Rank, Rank, std::int64_t>;

/// Interval t's transfers as (from, to, count) tuples, in list order.
std::vector<Entry> entries(const CommMatrix& m, std::size_t t) {
  std::vector<Entry> out;
  for (const CommMatrix::Transfer& x : m.interval_transfers(t))
    out.emplace_back(x.from, x.to, x.count);
  return out;
}

/// Particles rank r sends at interval t, summed from the transfers.
std::int64_t sent_by(const CommMatrix& m, Rank r, std::size_t t) {
  std::int64_t total = 0;
  for (const CommMatrix::Transfer& x : m.interval_transfers(t))
    if (x.from == r) total += x.count;
  return total;
}

TEST(CommMatrix, EmptyByDefault) {
  const CommMatrix m(4, 3);
  for (std::size_t t = 0; t < 3; ++t)
    EXPECT_TRUE(m.interval_transfers(t).empty()) << "t=" << t;
  EXPECT_EQ(m.interval_volume(0), 0);
  EXPECT_EQ(m.total_volume(), 0);
}

TEST(CommMatrix, AddAccumulates) {
  CommMatrix m(4, 2);
  m.add(0, 1, 0);
  m.add(0, 1, 0, 2);
  m.add(2, 3, 0, 5);
  m.add(1, 0, 0, 4);  // direction matters: its own entry
  EXPECT_EQ(entries(m, 0),
            (std::vector<Entry>{{0, 1, 3}, {1, 0, 4}, {2, 3, 5}}));
  EXPECT_EQ(m.interval_volume(0), 12);
  EXPECT_TRUE(m.interval_transfers(1).empty());
}

TEST(CommMatrix, ZeroCountIsNoOp) {
  CommMatrix m(2, 1);
  m.add(0, 1, 0, 0);
  EXPECT_TRUE(m.interval_transfers(0).empty());
  m.add(1, 0, 0, 3);
  m.add(1, 0, 0, 0);
  EXPECT_EQ(entries(m, 0), (std::vector<Entry>{{1, 0, 3}}));
}

TEST(CommMatrix, TransfersAreSortedAndComplete) {
  CommMatrix m(4, 1);
  m.add(3, 0, 0, 1);
  m.add(0, 2, 0, 4);
  m.add(0, 1, 0, 2);
  EXPECT_EQ(entries(m, 0),
            (std::vector<Entry>{{0, 1, 2}, {0, 2, 4}, {3, 0, 1}}));
}

TEST(CommMatrix, SentAndReceivedBy) {
  CommMatrix m(4, 2);
  m.add(1, 0, 0, 3);
  m.add(1, 2, 0, 4);
  m.add(0, 1, 0, 5);
  m.add(1, 3, 1, 9);
  EXPECT_EQ(sent_by(m, 1, 0), 7);
  EXPECT_EQ(m.received_by(1, 0), 5);
  EXPECT_EQ(m.received_by(2, 0), 4);
  EXPECT_EQ(sent_by(m, 1, 1), 9);
  EXPECT_EQ(m.total_volume(), 21);
}

TEST(CommMatrix, SelfTransfersAllowedButDistinct) {
  CommMatrix m(2, 1);
  m.add(0, 0, 0, 2);
  m.add(0, 1, 0, 1);
  EXPECT_EQ(entries(m, 0), (std::vector<Entry>{{0, 0, 2}, {0, 1, 1}}));
  EXPECT_EQ(sent_by(m, 0, 0), 3);
  EXPECT_EQ(m.received_by(0, 0), 2);
}

TEST(CommMatrix, TallyReceivedMatchesReceivedBy) {
  Xoshiro256 rng(11);
  const Rank ranks = 23;
  CommMatrix m(ranks, 4);
  // Interval 0 stays empty; the others get sparse to dense random traffic.
  for (std::size_t t = 1; t < 4; ++t)
    for (std::size_t i = 0; i < 40 * t * t; ++i)
      m.add(static_cast<Rank>(rng.uniform_below(ranks)),
            static_cast<Rank>(rng.uniform_below(ranks)), t,
            1 + static_cast<std::int64_t>(rng.uniform_below(9)));
  std::vector<std::int64_t> received = {99};  // stale contents get reset
  for (std::size_t t = 0; t < 4; ++t) {
    m.tally_received(t, received);
    ASSERT_EQ(received.size(), static_cast<std::size_t>(ranks));
    for (Rank r = 0; r < ranks; ++r)
      EXPECT_EQ(received[static_cast<std::size_t>(r)], m.received_by(r, t))
          << "rank " << r << " interval " << t;
  }
  EXPECT_THROW(m.tally_received(4, received), Error);
}

TEST(CommMatrix, MatchesAMapReferenceInAnyAddOrder) {
  // Random adds with repeated pairs, self pairs, and zero and negative
  // counts. Whatever order they arrive in (as drawn, in (from, to) order,
  // shuffled), the interval lists the reference's sums, one entry per pair,
  // in (from, to) order. A zero add is a no-op; a pair whose counts sum to
  // zero stays listed.
  Xoshiro256 rng(20261021);
  for (const Rank ranks : {1, 5, 40}) {
    for (int round = 0; round < 20; ++round) {
      SCOPED_TRACE("R=" + std::to_string(ranks) +
                   " round=" + std::to_string(round));
      std::vector<Entry> drawn(rng.uniform_below(200));
      std::map<std::pair<Rank, Rank>, std::int64_t> reference;
      std::int64_t volume = 0;
      const auto r_count = static_cast<std::uint64_t>(ranks);
      for (Entry& add : drawn) {
        const auto from = static_cast<Rank>(rng.uniform_below(r_count));
        const auto to = static_cast<Rank>(rng.uniform_below(r_count));
        const auto count = static_cast<std::int64_t>(rng.uniform_below(7)) - 3;
        add = {from, to, count};
        if (count != 0) reference[{from, to}] += count;
        volume += count;
      }
      std::vector<Entry> expected;
      for (const auto& [pair, count] : reference)
        expected.emplace_back(pair.first, pair.second, count);

      std::vector<Entry> in_order = drawn;
      std::stable_sort(in_order.begin(), in_order.end(),
                       [](const Entry& a, const Entry& b) {
                         return std::tie(std::get<0>(a), std::get<1>(a)) <
                                std::tie(std::get<0>(b), std::get<1>(b));
                       });
      std::vector<Entry> shuffled = drawn;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.uniform_below(i)]);

      for (const std::vector<Entry>* adds : {&drawn, &in_order, &shuffled}) {
        CommMatrix m(ranks, 2);
        for (const auto& [from, to, count] : *adds) m.add(from, to, 1, count);
        EXPECT_TRUE(m.interval_transfers(0).empty());
        const auto list = m.interval_transfers(1);
        EXPECT_TRUE(std::adjacent_find(
                        list.begin(), list.end(),
                        [](const CommMatrix::Transfer& a,
                           const CommMatrix::Transfer& b) {
                          return std::pair(a.from, a.to) >=
                                 std::pair(b.from, b.to);
                        }) == list.end())
            << "not one entry per pair in (from, to) order";
        EXPECT_EQ(entries(m, 1), expected);
        EXPECT_EQ(m.interval_volume(1), volume);
        EXPECT_EQ(m.total_volume(), volume);
      }
    }
  }
}

TEST(CommMatrix, BoundsChecked) {
  CommMatrix m(2, 1);
  EXPECT_THROW(m.add(0, 5, 0), Error);
  EXPECT_THROW(m.add(0, 1, 3), Error);
  EXPECT_THROW(m.add(-1, 0, 0), Error);
  // Every reader checks the interval.
  EXPECT_THROW(m.interval_transfers(1), Error);
  EXPECT_THROW(m.interval_volume(1), Error);
  EXPECT_THROW(m.received_by(0, 1), Error);
}

}  // namespace
}  // namespace picp
