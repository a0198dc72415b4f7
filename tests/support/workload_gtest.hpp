#pragma once

// GTest glue for the thread-invariance tests: two workloads must agree
// entry by entry and transfer by transfer.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "workload/generator.hpp"

namespace picp {

/// Every comp_real/comp_ghost entry and every comm_real/comm_ghost transfer
/// of `a` equals `b`'s; `what` names the pair in failure messages.
inline void expect_same_workload(const WorkloadResult& a,
                                 const WorkloadResult& b,
                                 const std::string& what) {
  ASSERT_EQ(a.num_ranks, b.num_ranks) << what;
  const std::size_t intervals = a.comp_real.num_intervals();
  ASSERT_EQ(intervals, b.comp_real.num_intervals()) << what;
  for (std::size_t t = 0; t < intervals; ++t) {
    for (Rank r = 0; r < a.num_ranks; ++r) {
      EXPECT_EQ(a.comp_real.at(r, t), b.comp_real.at(r, t))
          << what << " comp_real r=" << r << " t=" << t;
      EXPECT_EQ(a.comp_ghost.at(r, t), b.comp_ghost.at(r, t))
          << what << " comp_ghost r=" << r << " t=" << t;
    }
    for (const auto& [name, ma, mb] :
         {std::tuple{"comm_real", &a.comm_real, &b.comm_real},
          std::tuple{"comm_ghost", &a.comm_ghost, &b.comm_ghost}}) {
      const auto ta = ma->interval_transfers(t);
      const auto tb = mb->interval_transfers(t);
      ASSERT_EQ(ta.size(), tb.size()) << what << " " << name << " t=" << t;
      for (std::size_t k = 0; k < ta.size(); ++k) {
        EXPECT_EQ(ta[k].from, tb[k].from) << what << " " << name;
        EXPECT_EQ(ta[k].to, tb[k].to) << what << " " << name;
        EXPECT_EQ(ta[k].count, tb[k].count) << what << " " << name;
      }
    }
  }
}

}  // namespace picp
