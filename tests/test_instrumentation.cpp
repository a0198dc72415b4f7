// measure_adaptive repetition policy, pinned down with an injected fake
// clock. Real wall-clock assertions on this loop are flaky under sanitizers
// and loaded CI machines; the scripted clock makes warm-up, min_seconds
// adaptation, max_reps capping, and min-of-windows selection exact. Also
// which KernelTimings operations count as measurements.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "picsim/instrumentation.hpp"
#include "telemetry/telemetry.hpp"

namespace picp {
namespace {

// Passive clock over a global scripted timeline: the measured function
// advances `now` by whatever cost the test scripts, and each clock instance
// (one per timing window) reports elapsed time since its construction.
struct ScriptedClock {
  static inline double now = 0.0;
  double start = now;
  double seconds() const { return now - start; }
};

TEST(MeasureAdaptive, StopsEachWindowAtMinSeconds) {
  ScriptedClock::now = 0.0;
  int calls = 0;
  const auto work = [&calls] {
    ++calls;
    ScriptedClock::now += 1e-6;
  };
  const double per_rep = measure_adaptive<ScriptedClock>(
      work, /*min_seconds=*/4.5e-6, /*max_reps=*/128, /*windows=*/3);
  // Each window accumulates reps until elapsed >= 4.5us: five 1us reps.
  // Plus the single warm-up call before any window opens.
  EXPECT_EQ(calls, 1 + 3 * 5);
  EXPECT_DOUBLE_EQ(per_rep, 5e-6 / 5);
}

TEST(MeasureAdaptive, MaxRepsCapsAWindowThatNeverReachesMinSeconds) {
  ScriptedClock::now = 0.0;
  int calls = 0;
  const auto work = [&calls] {
    ++calls;
    ScriptedClock::now += 1e-9;
  };
  const double per_rep = measure_adaptive<ScriptedClock>(
      work, /*min_seconds=*/1.0, /*max_reps=*/7, /*windows=*/2);
  EXPECT_EQ(calls, 1 + 2 * 7);
  EXPECT_DOUBLE_EQ(per_rep, 1e-9);
}

TEST(MeasureAdaptive, ReturnsTheMinimumAcrossWindows) {
  // Window 1 runs at 1us/rep, later windows at 4us/rep (an OS-preemption
  // spike): the estimator must report the clean window.
  ScriptedClock::now = 0.0;
  int calls = 0;
  const auto work = [&calls] {
    ++calls;
    ScriptedClock::now += calls <= 4 ? 1e-6 : 4e-6;  // warm-up + window 1
  };
  const double per_rep = measure_adaptive<ScriptedClock>(
      work, /*min_seconds=*/3e-6, /*max_reps=*/128, /*windows=*/3);
  EXPECT_DOUBLE_EQ(per_rep, 1e-6);
}

TEST(MeasureAdaptive, WarmUpRunsExactlyOnceBeforeTiming) {
  ScriptedClock::now = 0.0;
  // The warm-up call costs 100us; timed reps cost 1us. If warm-up leaked
  // into a window the per-rep estimate would be wildly inflated.
  int calls = 0;
  const auto work = [&calls] {
    ++calls;
    ScriptedClock::now += calls == 1 ? 100e-6 : 1e-6;
  };
  const double per_rep = measure_adaptive<ScriptedClock>(
      work, /*min_seconds=*/2.5e-6, /*max_reps=*/128, /*windows=*/2);
  // NEAR, not EQ: the 100us warm-up shifts the timeline, so the 1us
  // differences pick up ~1 ulp of accumulation error.
  EXPECT_NEAR(per_rep, 3e-6 / 3, 1e-12);
}

TEST(MeasureAdaptive, DefaultStopwatchPathStillMeasures) {
  // Smoke only — no duration assertions on the real clock.
  int calls = 0;
  const double per_rep =
      measure_adaptive([&calls] { ++calls; }, 1e-9, /*max_reps=*/4,
                       /*windows=*/1);
  EXPECT_GE(per_rep, 0.0);
  EXPECT_GE(calls, 2);       // warm-up + at least one timed rep
  EXPECT_LE(calls, 1 + 4);
}

std::uint64_t push_measurements() {
  return telemetry::registry()
      .counter("picsim.kernel.push.measurements")
      .value();
}

/// Three push rows, as `simulate --timings` writes them.
std::string write_three_row_csv() {
  const std::string path = testing::TempDir() + "/picp_loaded_timings_" +
                           std::to_string(::getpid()) + ".csv";
  std::ofstream(path) << "interval,rank,kernel,seconds,np,ngp,nmove,filter,"
                         "nel\n"
                         "0,0,push,1.5e-6,10,0,0,0.02,4\n"
                         "0,1,push,2.5e-6,20,0,0,0.02,4\n"
                         "1,0,push,3.5e-6,30,0,0,0.02,4\n";
  return path;
}

TEST(KernelTimingsCounts, LoadingACsvMeasuresNothing) {
  // The rows were counted by the run that measured them.
  telemetry::configure(telemetry::SessionOptions{});
  const std::string path = write_three_row_csv();
  const KernelTimings loaded = KernelTimings::load_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(push_measurements(), 0u);
}

TEST(KernelTimingsCounts, AppendingCountsNothingAndAddCountsOnce) {
  telemetry::configure(telemetry::SessionOptions{});
  const std::string path = write_three_row_csv();
  KernelTimings merged;
  merged.append(KernelTimings::load_csv(path));
  merged.append(KernelTimings::load_csv(path));
  std::remove(path.c_str());
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged.records()[5].np, 30.0);
  EXPECT_EQ(push_measurements(), 0u);

  const TimingRecord measured = merged.records()[0];
  merged.add(measured);  // a measurement: counted once
  EXPECT_EQ(push_measurements(), 1u);
}

}  // namespace
}  // namespace picp
