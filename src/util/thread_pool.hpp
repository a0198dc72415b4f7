#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <vector>

namespace picp {

/// Point-in-time observability snapshot of a ThreadPool — the raw material
/// for the telemetry layer's `threadpool.*` metrics (tasks executed, queue
/// wait, per-worker busy fraction). The pool maintains these with a few
/// relaxed atomic adds per task; tasks are chunk-granularity, so the cost
/// is noise even with telemetry disabled.
struct ThreadPoolStats {
  /// Tasks fully executed so far.
  std::uint64_t tasks = 0;
  /// Total submit-to-dequeue latency summed over executed tasks.
  double queue_wait_seconds = 0.0;
  /// Largest single submit-to-dequeue latency seen.
  double max_queue_wait_seconds = 0.0;
  /// Total task execution time summed over all workers.
  double busy_seconds = 0.0;
  /// Execution time accumulated by each worker (index = worker).
  std::vector<double> worker_busy_seconds;
  /// Wall seconds since the pool was constructed.
  double lifetime_seconds = 0.0;
};

/// Fixed-size worker pool used to parallelize embarrassingly-parallel loops
/// (per-particle mapping, GP fitness evaluation, per-rank kernel models, the
/// picsim solver loop). Loops reach it through `parallel_for` below, which
/// owns the one rule for splitting a range across its workers.
///
/// The pool is intentionally simple: FIFO task queue, no work stealing. The
/// heavy loops in picpredict are partitioned into one chunk per worker, so a
/// deque-per-thread design would buy nothing.
///
/// Exception safety: a throwing task does not terminate the process. The
/// first exception thrown by any submitted task is captured and rethrown
/// from the next `wait_idle()`; the remaining tasks still run to
/// completion, and the pool stays usable afterwards. `parallel_for` keeps
/// its chunks' exceptions per call instead and never calls `wait_idle()`.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task. If it throws, the exception surfaces at the next
  /// wait_idle() call.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished, then rethrow the first
  /// exception any of them raised (clearing it, so the pool is reusable).
  void wait_idle();

  /// Cumulative execution statistics since construction. Thread-safe;
  /// callable while tasks are in flight (values are a consistent-enough
  /// snapshot for reporting, not a barrier).
  ThreadPoolStats stats() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  /// Cache-line-sized so workers never false-share their busy counters.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;

  // Observability (relaxed atomics; see ThreadPoolStats).
  const std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();
  std::unique_ptr<WorkerCounters[]> worker_counters_;
  std::atomic<std::uint64_t> tasks_done_{0};
  std::atomic<std::uint64_t> queue_wait_ns_{0};
  std::atomic<std::uint64_t> max_queue_wait_ns_{0};
};

/// Body of one chunk of `parallel_for`: the chunk's index, then its items
/// [begin, end).
using ChunkFn =
    std::function<void(std::size_t chunk, std::size_t begin, std::size_t end)>;

/// The one rule for splitting items [0, n) across a pool: min(workers,
/// n / grain) contiguous, ascending chunks of near-equal size, so no chunk
/// holds fewer than `grain` items. A null pool, a one-worker pool or a
/// range under two grains is one chunk; an empty range is none. Callers
/// size per-chunk scratch with this count and index it by chunk.
std::size_t chunk_count(const ThreadPool* pool, std::size_t n,
                        std::size_t grain);

/// Run fn(chunk, begin, end) over every chunk of [0, n) under the rule
/// above, blocking until all are done. One chunk runs inline on the caller,
/// with no submit and no wait. With more, chunks - 1 tasks go to `pool`;
/// the caller runs chunk 0 itself, and it and those tasks claim the other
/// chunk indices from one counter: the caller runs chunks until none is
/// left unclaimed, then waits only for chunks running on other threads.
/// Chunk 0 always runs on the caller, so what it allocates comes from the
/// caller's heap arena whatever the host's load. The call never waits for
/// a chunk nobody has started, so a task of `pool` may pass `pool`, and
/// concurrent calls on one pool never wait for each other's chunks. Every
/// chunk runs even if one throws; the call then rethrows the first
/// exception its own chunks raised.
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const ChunkFn& fn);

/// Bucket starts and bucketed ids written by `stable_bucket_sort`.
struct Buckets {
  /// Bucket b holds ids[offsets[b], offsets[b + 1]).
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> ids;
  /// Scratch: one row of counters per chunk (counts, then write cursors).
  std::vector<std::uint32_t> rows;

  std::span<const std::uint32_t> bucket(std::size_t b) const {
    return {ids.data() + offsets[b], offsets[b + 1] - offsets[b]};
  }
};

/// Body of one chunk of `stable_bucket_sort`: the chunk's index, its items
/// [begin, end) and its row of one counter per bucket.
using BucketFn = std::function<void(std::size_t chunk, std::size_t begin,
                                    std::size_t end, std::uint32_t* row)>;

/// The one stable counting sort. It files the ids that items [0, n) yield
/// into `buckets` buckets of `out`, in three steps:
///  1. per chunk, `count` adds 1 to row[b] for each id its items yield
///     into bucket b;
///  2. a prefix sum over (bucket, chunk) turns every row into that chunk's
///     write cursors, and sizes `out.ids`;
///  3. per chunk, `scatter` writes each id, in the order `count` saw it, to
///     out.ids[row[b]++].
/// Chunks follow `parallel_for`'s rule and their cursors follow chunk
/// order, so each bucket lists its ids in item order for any chunk count.
/// Over 2^16 buckets the sort runs as one chunk: there the chunks × buckets
/// counters outgrow the cache, and one chunk counts faster.
void stable_bucket_sort(ThreadPool* pool, std::size_t n, std::size_t grain,
                        std::size_t buckets, Buckets& out,
                        const BucketFn& count, const BucketFn& scatter);

/// `stable_bucket_sort` where item i yields its own id, into bucket key(i).
template <typename Key>
void bucket_by_key(ThreadPool* pool, std::size_t n, std::size_t grain,
                   std::size_t buckets, Buckets& out, const Key& key) {
  stable_bucket_sort(
      pool, n, grain, buckets, out,
      [&key](std::size_t, std::size_t begin, std::size_t end,
             std::uint32_t* row) {
        for (std::size_t i = begin; i < end; ++i) ++row[key(i)];
      },
      [&key, &out](std::size_t, std::size_t begin, std::size_t end,
                   std::uint32_t* row) {
        for (std::size_t i = begin; i < end; ++i)
          out.ids[row[key(i)]++] = static_cast<std::uint32_t>(i);
      });
}

}  // namespace picp
