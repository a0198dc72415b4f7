// Telemetry metrics registry + session: lock-free hot paths under the
// thread pool, histogram bucket-edge semantics, the disabled-mode
// zero-allocation guarantee, and the session lifecycle (configure resets
// values, summary_line).

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

// --- Program-wide allocation counter ----------------------------------------
// Replacing global operator new/delete is the only way to observe "the
// disabled telemetry path allocates nothing" without a heap profiler. The
// replacement forwards to malloc/free with only the counting added.
//
// Not under ASan: its pairing check tags allocations made through its own
// operator-new interceptor (e.g. inside libstdc++), and releasing those via
// a free()-based replacement delete is reported as an alloc-dealloc
// mismatch. The zero-allocation test skips itself there.
#if defined(__SANITIZE_ADDRESS__)
#define PICP_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PICP_COUNTS_ALLOCATIONS 0
#endif
#endif
#ifndef PICP_COUNTS_ALLOCATIONS
#define PICP_COUNTS_ALLOCATIONS 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if PICP_COUNTS_ALLOCATIONS

// GCC pairs the replaced operator new with the library free() it inlines
// into and warns; the pairing is correct here (new forwards to malloc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // PICP_COUNTS_ALLOCATIONS

namespace picp::telemetry {
namespace {

/// Every test runs against the process-wide singletons, so each starts from
/// a freshly configured session (values zeroed, spans dropped).
class TelemetrySession : public ::testing::Test {
 protected:
  void SetUp() override {
    SessionOptions options;  // enabled, memory-only (no directory)
    configure(options);
  }
  void TearDown() override {
    SessionOptions options;
    options.enabled = false;
    configure(options);
  }
};

TEST_F(TelemetrySession, CounterAndGaugeBasics) {
  Counter& c = registry().counter("test.basic_counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = registry().gauge("test.basic_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  const MetricsSnapshot snap = registry().snapshot();
  EXPECT_EQ(snap.counter_value("test.basic_counter"), 42u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("test.basic_gauge"), 2.5);
  EXPECT_EQ(snap.counter_value("test.never_registered"), 0u);
}

TEST_F(TelemetrySession, RegistryReturnsStableReferences) {
  Counter& first = registry().counter("test.stable");
  Counter& second = registry().counter("test.stable");
  EXPECT_EQ(&first, &second);
  // reset_values (via configure) zeroes but never invalidates.
  first.add(7);
  SessionOptions options;
  configure(options);
  EXPECT_EQ(second.value(), 0u);
  second.add(1);
  EXPECT_EQ(first.value(), 1u);
}

TEST_F(TelemetrySession, HistogramBucketEdges) {
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  Histogram& h = registry().histogram("test.edges", bounds);

  // Bucket i is (bounds[i-1], bounds[i]] — an observation exactly on a
  // bound lands in that bound's bucket, the next representable value above
  // it in the following one.
  h.observe(0.5);                      // bucket 0
  h.observe(1.0);                      // bucket 0 (inclusive upper edge)
  h.observe(std::nextafter(1.0, 2.0)); // bucket 1
  h.observe(2.0);                      // bucket 1
  h.observe(4.0);                      // bucket 2
  h.observe(4.0001);                   // overflow
  h.observe(1e9);                      // overflow

  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + std::nextafter(1.0, 2.0) + 2.0 + 4.0 +
                           4.0001 + 1e9,
              1e-6);
}

TEST_F(TelemetrySession, HistogramRejectsBadBounds) {
  EXPECT_THROW(registry().histogram("test.empty_bounds", std::vector<double>{}),
               Error);
  EXPECT_THROW(registry().histogram("test.unsorted_bounds",
                                    std::vector<double>{2.0, 1.0}),
               Error);
  EXPECT_THROW(registry().histogram("test.duplicate_bounds",
                                    std::vector<double>{1.0, 1.0}),
               Error);
}

TEST_F(TelemetrySession, ConcurrentIncrementsUnderThreadPool) {
  Counter& c = registry().counter("test.concurrent");
  Histogram& h =
      registry().histogram("test.concurrent_hist", std::vector<double>{0.5});
  constexpr std::size_t kItems = 200000;
  ThreadPool pool(4);
  pool.parallel_for(kItems, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      c.add();
      h.observe(i % 2 == 0 ? 0.25 : 1.0);
    }
  });
  EXPECT_EQ(c.value(), kItems);
  EXPECT_EQ(h.count(), kItems);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0] + counts[1], kItems);
  EXPECT_EQ(counts[0], kItems / 2);
}

TEST_F(TelemetrySession, PhasesAccumulateAndSpansRecord) {
  // Spans are buffered only for a session that will write them.
  SessionOptions options;
  options.directory = testing::TempDir() + "/picp_phases_" +
                      std::to_string(::getpid());
  configure(options);
  Phase& ph = phase("test.phase");
  {
    const ScopedSpan span("test.phase", ph, "test");
  }
  {
    const ScopedSpan span("test.phase");  // name-resolved variant
  }
  EXPECT_EQ(ph.count(), 2u);
  EXPECT_GE(ph.wall_seconds(), 0.0);
  EXPECT_EQ(tracer().span_count(), 2u);

  bool found = false;
  for (const PhaseTotal& total : phase_totals())
    if (total.name == "test.phase") {
      found = true;
      EXPECT_EQ(total.count, 2u);
    }
  EXPECT_TRUE(found);
  std::filesystem::remove_all(options.directory);
}

TEST_F(TelemetrySession, SpansAreBufferedOnlyForASessionWithADirectory) {
  // SetUp's session has no directory: finalize() would write spans
  // nowhere, so none is kept, while the phase still counts.
  EXPECT_FALSE(tracing());
  Phase& ph = phase("test.unwritten");
  const std::size_t spans_before = tracer().span_count();
  for (int i = 0; i < 100; ++i) {
    const ScopedSpan span("test.unwritten", ph, "test");
  }
  EXPECT_EQ(ph.count(), 100u);
  EXPECT_EQ(tracer().span_count(), spans_before);
}

TEST_F(TelemetrySession, SummaryLineNamesHottestPhase) {
  Phase& ph = phase("test.hot_phase");
  ph.add(12.0, 11.0);
  const std::string line = summary_line();
  EXPECT_NE(line.find("test.hot_phase"), std::string::npos) << line;
  EXPECT_NE(line.find("telemetry:"), std::string::npos) << line;
}

TEST_F(TelemetrySession, PublishPoolStatsExportsUtilization) {
  ThreadPoolStats stats;
  stats.tasks = 10;
  stats.queue_wait_seconds = 0.25;
  stats.max_queue_wait_seconds = 0.1;
  stats.worker_busy_seconds = {1.0, 3.0};
  stats.busy_seconds = 4.0;
  stats.lifetime_seconds = 4.0;
  publish_pool_stats(stats);
  const MetricsSnapshot snap = registry().snapshot();
  EXPECT_EQ(snap.counter_value("threadpool.tasks"), 10u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("threadpool.workers"), 2.0);
  EXPECT_DOUBLE_EQ(snap.gauge_value("threadpool.utilization"), 0.5);
  EXPECT_DOUBLE_EQ(snap.gauge_value("threadpool.worker.1.busy_fraction"),
                   0.75);
}

TEST(TelemetryDisabled, HotPathsAreNoOpsAndAllocationFree) {
  // Register (and thereby allocate) everything while a session is live...
  {
    SessionOptions options;
    configure(options);
  }
  Counter& c = registry().counter("test.disabled_counter");
  Phase& ph = phase("test.disabled_phase");
  {
    SessionOptions options;
    options.enabled = false;
    configure(options);
  }
  ASSERT_FALSE(enabled());
  const std::uint64_t spans_before = tracer().span_count();

  // ...then drive the hot paths with telemetry off: no spans buffered, no
  // phase totals accumulated, and not a single heap allocation. (The
  // allocation delta is only meaningful when PICP_COUNTS_ALLOCATIONS — under
  // ASan the counter stays zero and this check degrades to a no-op.)
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const ScopedSpan span("test.disabled_span");
    const ScopedSpan with_phase("test.disabled_phase", ph, "test");
    c.add();
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after - allocs_before, 0u);
  EXPECT_EQ(tracer().span_count(), spans_before);
  EXPECT_EQ(ph.count(), 0u);
  // Counters record with or without a session; a fresh configure() zeroes
  // them for the next one.
  EXPECT_EQ(c.value(), 1000u);
  SessionOptions options;
  configure(options);
  EXPECT_EQ(c.value(), 0u);
  options.enabled = false;
  configure(options);
}

TEST(TelemetryDisabled, BuildManifestStillWorks) {
  SessionOptions options;
  options.enabled = false;
  configure(options);
  set_run_info("unit-test", 0xabcd, 3);
  const RunManifest manifest = build_manifest();
  EXPECT_EQ(manifest.command, "unit-test");
  EXPECT_EQ(manifest.threads, 3u);
}

}  // namespace
}  // namespace picp::telemetry
