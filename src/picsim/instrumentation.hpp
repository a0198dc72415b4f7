#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "mesh/partition.hpp"
#include "picsim/kernels.hpp"
#include "util/timer.hpp"

namespace picp {

/// One measured kernel execution on one virtual rank at one sampled interval,
/// with the workload features the Model Generator trains on.
struct TimingRecord {
  std::uint32_t interval = 0;
  Rank rank = 0;
  Kernel kernel = Kernel::kInterpolate;
  /// Wall seconds for a single kernel execution (repetition-normalized).
  double seconds = 0.0;
  /// Workload features at measurement time.
  double np = 0.0;     // real particles on the rank
  double ngp = 0.0;    // ghost particles on the rank
  double nmove = 0.0;  // particles migrating off the rank
  double filter = 0.0; // projection filter size in effect
  double nel = 0.0;    // spectral elements owned by the rank
};

/// Container for instrumented measurements of a proxy-application run — the
/// stand-in for profiling CMT-nek on Quartz. Serializable to CSV so bench
/// binaries can cache expensive instrumented runs.
///
/// Per-kernel aggregates (how many measurements, total measured seconds,
/// the seconds distribution) live in the telemetry registry as
/// `picsim.kernel.<name>.*`, fed by `add()` once per measurement — not in
/// parallel accumulator fields here. Rows that `load_csv` reads or
/// `append` copies were counted when they were measured, so they publish
/// nothing. Consumers wanting aggregates snapshot the registry;
/// `records()` remains the exact per-measurement ground truth.
class KernelTimings {
 public:
  void add(const TimingRecord& record);
  void append(const KernelTimings& other);
  std::span<const TimingRecord> records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// All records for one kernel.
  std::vector<TimingRecord> for_kernel(Kernel k) const;

  void save_csv(const std::string& path) const;
  static KernelTimings load_csv(const std::string& path);

 private:
  std::vector<TimingRecord> records_;
};

/// Repetition-based micro-measurement: runs `fn` in `windows` independent
/// timing windows, each accumulating until `min_seconds` of wall time or
/// `max_reps` repetitions, and returns the *minimum* per-run time across
/// windows. Virtual ranks carry microsecond-scale kernel work, so
/// single-shot timing would be clock-noise dominated; the min-of-windows
/// estimator additionally rejects OS preemption spikes, the dominant error
/// source for sub-millisecond measurements on a shared machine.
///
/// `Clock` must be stateless-constructible with a `seconds()` member
/// measuring elapsed time since construction (Stopwatch's shape). Tests
/// inject a fake clock to pin down the repetition policy deterministically —
/// wall-clock assertions on this loop are inherently flaky under sanitizers
/// and loaded CI machines.
template <typename Clock = Stopwatch, typename F>
double measure_adaptive(F&& fn, double min_seconds = 25e-6,
                        int max_reps = 128, int windows = 3) {
  fn();  // warm-up: caches and lazily-built tables are realistic steady state
  double best = std::numeric_limits<double>::infinity();
  for (int w = 0; w < windows; ++w) {
    Clock watch;
    int reps = 0;
    do {
      fn();
      ++reps;
    } while (watch.seconds() < min_seconds && reps < max_reps);
    best = std::min(best, watch.seconds() / reps);
  }
  return best;
}

}  // namespace picp
