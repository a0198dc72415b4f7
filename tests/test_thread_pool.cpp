#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace picp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  ThreadPool auto_pool(0);
  EXPECT_GE(auto_pool.size(), 1u);
}

TEST(ThreadPool, NullTaskThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), Error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> touched(n);
  parallel_for(&pool, n, 2,
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) ++touched[i];
               });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(&pool, 0, 2,
               [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRangeRunsInline) {
  ThreadPool pool(8);
  std::vector<int> touched(3, 0);
  parallel_for(&pool, 3, 2,
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) ++touched[i];
               });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 3);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 10; ++round) {
    parallel_for(&pool, 1000, 2,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   total += static_cast<long>(end - begin);
                 });
  }
  EXPECT_EQ(total.load(), 10000);
}

TEST(ThreadPool, WaitIdleOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ThrowingTaskPropagatesFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait_idle(), Error);
}

TEST(ThreadPool, ThrowingTaskPropagatesFromParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 10000, 2,
                   [](std::size_t, std::size_t begin, std::size_t) {
                     if (begin == 0) throw Error("chunk failed");
                   }),
      Error);
}

TEST(ThreadPool, PoolUsableAfterTaskThrows) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("first batch"); });
  EXPECT_THROW(pool.wait_idle(), Error);
  // The error must not poison later batches.
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, RemainingTasksRunAfterOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter, i] {
      if (i == 3) throw Error("one bad task");
      ++counter;
    });
  EXPECT_THROW(pool.wait_idle(), Error);
  EXPECT_EQ(counter.load(), 99);
}

TEST(ThreadPool, GrainKeepsSmallRangesInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  const auto tid = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  parallel_for(&pool, 100, /*grain=*/200,
               [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                 ++calls;
                 if (std::this_thread::get_id() != tid) same_thread = false;
                 EXPECT_EQ(chunk, 0u);
                 EXPECT_EQ(begin, 0u);
                 EXPECT_EQ(end, 100u);
               });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(same_thread.load());
  EXPECT_EQ(pool.stats().tasks, 0u) << "one chunk must not be submitted";
}

TEST(ThreadPool, GrainBoundsChunkCount) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(&pool, 1000, /*grain=*/400,
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 std::lock_guard<std::mutex> lock(mu);
                 chunks.emplace_back(begin, end);
               });
  // 1000 / 400 = 2 chunks at most, each at least the grain size.
  EXPECT_LE(chunks.size(), 2u);
  std::size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_GE(end - begin, 400u);
    covered += end - begin;
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(ThreadPool, ChunkCountFollowsWorkersRangeAndGrain) {
  ThreadPool one(1);
  ThreadPool four(4);
  EXPECT_EQ(chunk_count(nullptr, 100000, 1), 1u);
  EXPECT_EQ(chunk_count(&one, 100000, 1), 1u);
  EXPECT_EQ(chunk_count(&four, 0, 1), 0u);
  EXPECT_EQ(chunk_count(nullptr, 0, 1), 0u);
  EXPECT_EQ(chunk_count(&four, 511, 256), 1u);  // under two grains
  EXPECT_EQ(chunk_count(&four, 512, 256), 2u);
  EXPECT_EQ(chunk_count(&four, 1000, 256), 3u);
  EXPECT_EQ(chunk_count(&four, 100000, 256), 4u);  // capped by workers
  EXPECT_EQ(chunk_count(&four, 3, 0), 3u);         // grain 0 acts as 1
}

TEST(ThreadPool, NullPoolRunsOneInlineChunk) {
  const auto tid = std::this_thread::get_id();
  int calls = 0;
  parallel_for(nullptr, 1u << 20, 1,
               [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                 ++calls;
                 EXPECT_EQ(std::this_thread::get_id(), tid);
                 EXPECT_EQ(chunk, 0u);
                 EXPECT_EQ(begin, 0u);
                 EXPECT_EQ(end, std::size_t{1} << 20);
               });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ChunksAreContiguousAscendingAndIndexed) {
  ThreadPool pool(7);
  for (const std::size_t n : {14u, 1000u, 1001u, 99999u}) {
    const std::size_t chunks = chunk_count(&pool, n, 2);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
    std::vector<std::atomic<int>> seen(chunks);
    parallel_for(&pool, n, 2,
                 [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                   ASSERT_LT(chunk, chunks);
                   ranges[chunk] = {begin, end};
                   ++seen[chunk];
                 });
    std::size_t next = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(seen[c].load(), 1) << "n=" << n << " chunk " << c;
      EXPECT_EQ(ranges[c].first, next) << "n=" << n << " chunk " << c;
      EXPECT_GE(ranges[c].second - ranges[c].first, 2u);
      next = ranges[c].second;
    }
    EXPECT_EQ(next, n);
  }
}

/// How long a test waits for something that must happen promptly. A wait
/// that runs out is a failure, not a hang.
constexpr auto kBound = std::chrono::seconds(10);

/// A count that threads raise and others wait on, up to kBound.
class Arrivals {
 public:
  void arrive() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
    }
    raised_.notify_all();
  }
  /// Whether the count reached `count` within kBound.
  bool wait_for(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    return raised_.wait_for(lock, kBound,
                            [this, count] { return count_ >= count; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable raised_;
  int count_ = 0;
};

TEST(ThreadPool, CallerRunsEveryChunkWhileEveryWorkerIsBusy) {
  ThreadPool pool(2);
  Arrivals release;
  for (int i = 0; i < 2; ++i) pool.submit([&release] { release.wait_for(1); });
  // Both workers take a blocking task before any chunk's task (FIFO).
  ASSERT_EQ(chunk_count(&pool, 1000, 1), 2u);
  std::vector<std::thread::id> ran_on(2);
  auto call = std::async(std::launch::async, [&pool, &ran_on] {
    parallel_for(&pool, 1000, 1, [&ran_on](std::size_t c, std::size_t,
                                           std::size_t) {
      ran_on[c] = std::this_thread::get_id();
    });
    return std::this_thread::get_id();
  });
  const bool returned =
      call.wait_for(kBound) == std::future_status::ready;
  release.arrive();
  const std::thread::id caller = call.get();
  pool.wait_idle();
  EXPECT_TRUE(returned) << "parallel_for waited for a chunk nobody started";
  for (std::size_t c = 0; c < ran_on.size(); ++c)
    EXPECT_EQ(ran_on[c], caller) << "chunk " << c;
}

TEST(ThreadPool, ATaskMayPassItsOwnPool) {
  struct State {
    std::atomic<std::size_t> covered{0};
    Arrivals returned;
  };
  auto pool = std::make_unique<ThreadPool>(2);
  const auto state = std::make_shared<State>();
  pool->submit([state, &pool] {
    parallel_for(pool.get(), 1000, 1,
                 [&state](std::size_t, std::size_t begin, std::size_t end) {
                   state->covered += end - begin;
                 });
    state->returned.arrive();
  });
  if (!state->returned.wait_for(1)) {
    // The nested call never returns, so neither can the pool's destructor.
    static_cast<void>(pool.release());
    FAIL() << "a task's parallel_for on its own pool did not return";
  }
  pool->wait_idle();
  EXPECT_EQ(state->covered.load(), 1000u);
}

TEST(ThreadPool, ConcurrentCallsKeepTheirOwnCompletionAndErrors) {
  ThreadPool pool(2);
  Arrivals blocked;
  Arrivals throwing_returned;
  std::atomic<int> timed_out{0};
  // One call's two chunks block until the other call, whose chunks throw,
  // has returned.
  auto blocking = std::async(std::launch::async, [&] {
    parallel_for(&pool, 2, 1, [&](std::size_t, std::size_t, std::size_t) {
      blocked.arrive();
      if (!throwing_returned.wait_for(1)) ++timed_out;
    });
  });
  ASSERT_TRUE(blocked.wait_for(2)) << "the blocking call's chunks";
  std::string error;
  try {
    parallel_for(&pool, 2, 1, [](std::size_t c, std::size_t, std::size_t) {
      throw Error("throwing call, chunk " + std::to_string(c));
    });
  } catch (const Error& e) {
    error = e.what();
  }
  throwing_returned.arrive();
  EXPECT_NO_THROW(blocking.get()) << "the blocking call got the other's error";
  EXPECT_NE(error.find("throwing call"), std::string::npos)
      << "the throwing call did not rethrow its own error";
  EXPECT_EQ(timed_out.load(), 0)
      << "the throwing call waited for the blocking call's chunks";
  pool.wait_idle();
}

// The stable bucket sort files ids in item order within each bucket, the
// same for no pool and for pools that split the items into many chunks.
TEST(StableBucketSort, SameBucketsForAnyPool) {
  const std::size_t n = 5003;
  const std::size_t buckets = 37;
  std::vector<std::size_t> key(n);
  for (std::size_t i = 0; i < n; ++i) key[i] = (i * 7919) % buckets;
  // Item i yields ids 2i and 2i+1, into buckets key[i] and (key[i]+1) % B.
  const auto sort = [&](ThreadPool* pool) {
    Buckets out;
    stable_bucket_sort(
        pool, n, 16, buckets, out,
        [&](std::size_t, std::size_t begin, std::size_t end,
            std::uint32_t* row) {
          for (std::size_t i = begin; i < end; ++i) {
            ++row[key[i]];
            ++row[(key[i] + 1) % buckets];
          }
        },
        [&](std::size_t, std::size_t begin, std::size_t end,
            std::uint32_t* row) {
          for (std::size_t i = begin; i < end; ++i) {
            out.ids[row[key[i]]++] = static_cast<std::uint32_t>(2 * i);
            out.ids[row[(key[i] + 1) % buckets]++] =
                static_cast<std::uint32_t>(2 * i + 1);
          }
        });
    return out;
  };
  const Buckets serial = sort(nullptr);
  ASSERT_EQ(serial.ids.size(), 2 * n);
  ASSERT_EQ(serial.offsets.size(), buckets + 1);
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto ids = serial.bucket(b);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << "bucket " << b;
    for (const std::uint32_t id : ids) {
      const std::size_t item = id / 2;
      EXPECT_EQ(id % 2 == 0 ? key[item] : (key[item] + 1) % buckets, b);
    }
  }
  for (const std::size_t workers : {2u, 3u, 8u}) {
    ThreadPool pool(workers);
    const Buckets split = sort(&pool);
    pool.wait_idle();  // a chunk's task may still be queued after the call
    EXPECT_GT(pool.stats().tasks, 0u) << workers << " workers ran one chunk";
    EXPECT_EQ(split.offsets, serial.offsets) << workers << " workers";
    EXPECT_EQ(split.ids, serial.ids) << workers << " workers";
  }
}

TEST(StableBucketSort, ManyBucketsSortAsOneChunk) {
  // Over 2^16 buckets the per-chunk counter rows would outgrow the cache.
  ThreadPool pool(4);
  const std::size_t n = 10000;
  const std::size_t buckets = (std::size_t{1} << 16) + 1;
  Buckets out;
  std::size_t chunks_seen = 0;
  stable_bucket_sort(
      &pool, n, 1, buckets, out,
      [&](std::size_t chunk, std::size_t begin, std::size_t end,
          std::uint32_t* row) {
        chunks_seen = std::max(chunks_seen, chunk + 1);
        for (std::size_t i = begin; i < end; ++i) ++row[(i * 13) % buckets];
      },
      [&](std::size_t, std::size_t begin, std::size_t end,
          std::uint32_t* row) {
        for (std::size_t i = begin; i < end; ++i)
          out.ids[row[(i * 13) % buckets]++] = static_cast<std::uint32_t>(i);
      });
  EXPECT_EQ(chunks_seen, 1u);
  EXPECT_EQ(pool.stats().tasks, 0u);
  EXPECT_EQ(out.ids.size(), n);
  EXPECT_EQ(out.bucket(13).size(), 1u);
  EXPECT_EQ(out.bucket(13)[0], 1u);
}

TEST(StableBucketSort, EmptyRangeLeavesEmptyBuckets) {
  ThreadPool pool(4);
  Buckets out;
  stable_bucket_sort(
      &pool, 0, 1, 5, out,
      [](std::size_t, std::size_t, std::size_t, std::uint32_t*) {
        FAIL() << "no chunk expected";
      },
      [](std::size_t, std::size_t, std::size_t, std::uint32_t*) {
        FAIL() << "no chunk expected";
      });
  EXPECT_EQ(out.offsets, std::vector<std::uint32_t>(6, 0));
  EXPECT_TRUE(out.ids.empty());
  EXPECT_TRUE(out.bucket(4).empty());
}

}  // namespace
}  // namespace picp
