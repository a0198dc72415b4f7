#include "workload/comm_matrix.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

TEST(CommMatrix, EmptyByDefault) {
  const CommMatrix m(4, 3);
  EXPECT_EQ(m.at(0, 1, 0), 0);
  EXPECT_EQ(m.interval_volume(0), 0);
  EXPECT_EQ(m.interval_pairs(0), 0u);
  EXPECT_EQ(m.total_volume(), 0);
}

TEST(CommMatrix, AddAccumulates) {
  CommMatrix m(4, 2);
  m.add(0, 1, 0);
  m.add(0, 1, 0, 2);
  m.add(2, 3, 0, 5);
  EXPECT_EQ(m.at(0, 1, 0), 3);
  EXPECT_EQ(m.at(2, 3, 0), 5);
  EXPECT_EQ(m.at(1, 0, 0), 0);  // direction matters
  EXPECT_EQ(m.interval_volume(0), 8);
  EXPECT_EQ(m.interval_pairs(0), 2u);
}

TEST(CommMatrix, ZeroCountIsNoOp) {
  CommMatrix m(2, 1);
  m.add(0, 1, 0, 0);
  EXPECT_EQ(m.interval_pairs(0), 0u);
}

TEST(CommMatrix, TransfersAreSortedAndComplete) {
  CommMatrix m(4, 1);
  m.add(3, 0, 0, 1);
  m.add(0, 2, 0, 4);
  m.add(0, 1, 0, 2);
  const auto transfers = m.interval_transfers(0);
  ASSERT_EQ(transfers.size(), 3u);
  EXPECT_EQ(transfers[0].from, 0);
  EXPECT_EQ(transfers[0].to, 1);
  EXPECT_EQ(transfers[0].count, 2);
  EXPECT_EQ(transfers[1].to, 2);
  EXPECT_EQ(transfers[2].from, 3);
}

TEST(CommMatrix, SentAndReceivedBy) {
  CommMatrix m(4, 2);
  m.add(1, 0, 0, 3);
  m.add(1, 2, 0, 4);
  m.add(0, 1, 0, 5);
  m.add(1, 3, 1, 9);
  EXPECT_EQ(m.sent_by(1, 0), 7);
  EXPECT_EQ(m.received_by(1, 0), 5);
  EXPECT_EQ(m.received_by(2, 0), 4);
  EXPECT_EQ(m.sent_by(1, 1), 9);
  EXPECT_EQ(m.total_volume(), 21);
}

TEST(CommMatrix, SelfTransfersAllowedButDistinct) {
  CommMatrix m(2, 1);
  m.add(0, 0, 0, 2);
  EXPECT_EQ(m.at(0, 0, 0), 2);
  EXPECT_EQ(m.sent_by(0, 0), 2);
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

TEST(CommMatrix, BoundsChecked) {
  CommMatrix m(2, 1);
  EXPECT_THROW(m.add(0, 5, 0), Error);
  EXPECT_THROW(m.add(0, 1, 3), Error);
  EXPECT_THROW(m.add(-1, 0, 0), Error);
}

}  // namespace
}  // namespace picp
