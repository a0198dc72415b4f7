#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace picp {

namespace {
using SteadyClock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(SteadyClock::time_point from,
                         SteadyClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  worker_counters_ = std::make_unique<WorkerCounters[]>(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  PICP_REQUIRE(task != nullptr, "null task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(Task{std::move(task), SteadyClock::now()});
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats stats;
  stats.tasks = tasks_done_.load(std::memory_order_relaxed);
  stats.queue_wait_seconds =
      static_cast<double>(queue_wait_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  stats.max_queue_wait_seconds =
      static_cast<double>(
          max_queue_wait_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  stats.worker_busy_seconds.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    stats.worker_busy_seconds[i] =
        static_cast<double>(
            worker_counters_[i].busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    stats.busy_seconds += stats.worker_busy_seconds[i];
  }
  stats.lifetime_seconds =
      static_cast<double>(elapsed_ns(created_, SteadyClock::now())) * 1e-9;
  return stats;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  WorkerCounters& counters = worker_counters_[worker_index];
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const SteadyClock::time_point started = SteadyClock::now();
    const std::uint64_t wait_ns = elapsed_ns(task.enqueued, started);
    queue_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    std::uint64_t seen_max =
        max_queue_wait_ns_.load(std::memory_order_relaxed);
    while (wait_ns > seen_max &&
           !max_queue_wait_ns_.compare_exchange_weak(
               seen_max, wait_ns, std::memory_order_relaxed)) {
    }
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    counters.busy_ns.fetch_add(elapsed_ns(started, SteadyClock::now()),
                               std::memory_order_relaxed);
    tasks_done_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && first_error_ == nullptr) first_error_ = std::move(error);
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

std::size_t chunk_count(const ThreadPool* pool, std::size_t n,
                        std::size_t grain) {
  if (n == 0) return 0;
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  return std::clamp<std::size_t>(n / std::max<std::size_t>(1, grain), 1,
                                 workers);
}

namespace {
/// One `parallel_for` call's chunks, shared by the caller and its submitted
/// tasks. A task can start after the call has returned, so it holds the
/// state by shared_ptr; it then finds no chunk left and never reads `fn`.
struct ChunkClaims {
  ChunkClaims(const ChunkFn& body, std::size_t items, std::size_t count)
      : fn(&body), n(items), chunks(count) {}

  /// Run chunks until none is unclaimed.
  void run() {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed))
      run_chunk(c);
  }

  /// Run chunk c, which the calling thread owns, and count it finished.
  void run_chunk(std::size_t c) {
    std::exception_ptr failure;
    try {
      // Chunk c covers [c·n/chunks, (c+1)·n/chunks): every chunk is
      // non-empty and holds at least n / chunks >= grain items.
      (*fn)(c, c * n / chunks, (c + 1) * n / chunks);
    } catch (...) {
      failure = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (failure && error == nullptr) error = std::move(failure);
    if (++finished == chunks) all_finished.notify_all();
  }

  const ChunkFn* fn;  // read only while a claimed chunk keeps the call open
  const std::size_t n;
  const std::size_t chunks;
  std::atomic<std::size_t> next{1};  // chunk 0 is the caller's
  std::mutex mutex;
  std::condition_variable all_finished;
  std::size_t finished = 0;
  std::exception_ptr error;  // this call's first
};
}  // namespace

void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const ChunkFn& fn) {
  const std::size_t chunks = chunk_count(pool, n, grain);
  if (chunks == 0) return;
  if (chunks == 1) {
    fn(0, 0, n);
    return;
  }
  const auto claims = std::make_shared<ChunkClaims>(fn, n, chunks);
  for (std::size_t c = 1; c < chunks; ++c)
    pool->submit([claims] { claims->run(); });
  claims->run_chunk(0);
  claims->run();
  std::unique_lock<std::mutex> lock(claims->mutex);
  claims->all_finished.wait(
      lock, [&claims] { return claims->finished == claims->chunks; });
  if (claims->error) std::rethrow_exception(claims->error);
}

namespace {
/// Largest bucket count `stable_bucket_sort` still splits into chunks.
constexpr std::size_t kMaxChunkedBuckets = std::size_t{1} << 16;
}  // namespace

void stable_bucket_sort(ThreadPool* pool, std::size_t n, std::size_t grain,
                        std::size_t buckets, Buckets& out,
                        const BucketFn& count, const BucketFn& scatter) {
  if (buckets > kMaxChunkedBuckets) pool = nullptr;
  const std::size_t chunks = chunk_count(pool, n, grain);
  out.rows.assign(chunks * buckets, 0);
  parallel_for(pool, n, grain,
               [&](std::size_t c, std::size_t begin, std::size_t end) {
                 count(c, begin, end, out.rows.data() + c * buckets);
               });
  out.offsets.resize(buckets + 1);
  std::uint32_t cursor = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    out.offsets[b] = cursor;
    for (std::size_t c = 0; c < chunks; ++c)  // count -> cursor
      cursor += std::exchange(out.rows[c * buckets + b], cursor);
  }
  out.offsets[buckets] = cursor;
  out.ids.resize(cursor);
  parallel_for(pool, n, grain,
               [&](std::size_t c, std::size_t begin, std::size_t end) {
                 scatter(c, begin, end, out.rows.data() + c * buckets);
               });
}

}  // namespace picp
