// Unit tests for the serving layer's content-addressed artifact cache:
// LRU bounds, concurrent misses of one key, and the crash-safe disk spill
// tier. (Coalescing identical in-flight requests is the reactor's job; see
// test_reactor.cpp.)

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/artifact_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace picp::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/picp_artifact_" + name;
  fs::remove_all(dir);
  return dir;
}

/// The counter family of the running test's caches, zeroed first so every
/// count the test reads is its own.
std::string test_family() {
  const std::string family =
      std::string("test.cache.") +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  for (const char* name : {"hits", "disk_hits", "stale_served", "misses",
                           "evictions", "quarantined", "spill_failures"})
    telemetry::registry().counter(family + "." + name).reset();
  return family;
}

std::uint64_t count(const std::string& family, const char* name) {
  return telemetry::registry().counter(family + "." + name).value();
}

TEST(ArtifactCache, MissComputesThenHitServesWithoutRecomputing) {
  const std::string family = test_family();
  ArtifactCache<int> cache(4, family);
  int computes = 0;
  bool from_cache = true;
  auto first = cache.get_or_compute(7, [&] { ++computes; return 41; },
                                    &from_cache);
  EXPECT_EQ(*first, 41);
  EXPECT_FALSE(from_cache);
  auto second = cache.get_or_compute(7, [&] { ++computes; return -1; },
                                     &from_cache);
  EXPECT_EQ(*second, 41);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(count(family, "hits"), 1u);
  EXPECT_EQ(count(family, "misses"), 1u);
}

TEST(ArtifactCache, LruEvictsLeastRecentlyTouchedKey) {
  const std::string family = test_family();
  ArtifactCache<int> cache(2, family);
  int computes = 0;
  const auto fill = [&](std::uint64_t key) {
    return *cache.get_or_compute(key, [&] { ++computes; return int(key); });
  };
  fill(1);
  fill(2);
  fill(1);  // touch 1 so 2 becomes the LRU victim
  fill(3);  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(count(family, "evictions"), 1u);
  computes = 0;
  fill(1);
  fill(3);
  EXPECT_EQ(computes, 0) << "survivors must still be resident";
  fill(2);
  EXPECT_EQ(computes, 1) << "the evicted key must recompute";
}

TEST(ArtifactCache, EvictedEntriesSpillToDiskAndRepopulate) {
  const std::string dir = temp_dir("spill");
  ArtifactCache<std::string>::SpillHooks hooks;
  hooks.encode = [](const std::string& v) { return v; };
  hooks.decode = [](const std::string& bytes) { return bytes; };
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, dir, hooks);

  cache.get_or_compute(1, [] { return std::string("one"); });
  cache.get_or_compute(2, [] { return std::string("two"); });  // evicts 1
  EXPECT_TRUE(fs::exists(cache.spill_path(1))) << cache.spill_path(1);

  int computes = 0;
  bool from_cache = false;
  auto revived = cache.get_or_compute(
      1, [&] { ++computes; return std::string("recomputed"); }, &from_cache);
  EXPECT_EQ(*revived, "one") << "disk tier should have served the artifact";
  EXPECT_EQ(computes, 0);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(count(family, "disk_hits"), 1u);
  fs::remove_all(dir);
}

TEST(ArtifactCache, CorruptSpillFileFallsBackToCompute) {
  const std::string dir = temp_dir("corrupt");
  ArtifactCache<std::string>::SpillHooks hooks;
  hooks.encode = [](const std::string& v) { return v; };
  hooks.decode = [](const std::string& bytes) -> std::string {
    if (bytes.rfind("ok:", 0) != 0) throw Error("corrupt spill artifact");
    return bytes.substr(3);
  };
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, dir, hooks);

  // Plant garbage where key 9's spill would live.
  fs::create_directories(dir);
  std::ofstream(cache.spill_path(9), std::ios::binary) << "\x00garbage";

  int computes = 0;
  bool from_cache = true;
  auto value = cache.get_or_compute(
      9, [&] { ++computes; return std::string("fresh"); }, &from_cache);
  EXPECT_EQ(*value, "fresh");
  EXPECT_EQ(computes, 1);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(count(family, "disk_hits"), 0u);
  fs::remove_all(dir);
}

TEST(ArtifactCache, ConcurrentComputesOfOneKeyLeaveOneResidentEntry) {
  // No single-flight: both callers miss and compute, both get a value,
  // and the cache ends with one resident entry that later callers hit.
  const std::string family = test_family();
  ArtifactCache<std::string> cache(4, family);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  int computing = 0;

  const auto compute = [&] {
    // Hold each compute until both are in flight together.
    std::unique_lock<std::mutex> lock(gate_mutex);
    ++computing;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return computing == 2; });
    return std::string("artifact");
  };
  std::shared_ptr<const std::string> results[2];
  bool from_cache[2] = {true, true};
  std::thread first([&] {
    results[0] = cache.get_or_compute(3, compute, &from_cache[0]);
  });
  results[1] = cache.get_or_compute(3, compute, &from_cache[1]);
  first.join();

  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(*results[i], "artifact");
    EXPECT_FALSE(from_cache[i]) << "caller " << i << " computed";
  }
  EXPECT_EQ(results[0].get(), results[1].get())
      << "both callers must return the one resident value";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(count(family, "misses"), 2u);
  bool hit = false;
  EXPECT_EQ(cache.get_or_compute(3, [] { return std::string("x"); }, &hit)
                .get(),
            results[0].get());
  EXPECT_TRUE(hit);
}

TEST(ArtifactCache, ZeroCapacityIsClampedToOne) {
  ArtifactCache<int> cache(0, test_family());
  cache.get_or_compute(1, [] { return 1; });
  EXPECT_EQ(cache.size(), 1u);
  bool from_cache = false;
  cache.get_or_compute(1, [] { return -1; }, &from_cache);
  EXPECT_TRUE(from_cache);
}

// ---------------------------------------------------------------------------
// Robustness contract (PR 7): spill failures, quarantine, deadlines, stale.
// ---------------------------------------------------------------------------

ArtifactCache<std::string>::SpillHooks identity_hooks() {
  ArtifactCache<std::string>::SpillHooks hooks;
  hooks.encode = [](const std::string& v) { return v; };
  hooks.decode = [](const std::string& bytes) { return bytes; };
  return hooks;
}

TEST(ArtifactCache, FailedSpillNeverLeavesTruncatedReplayableEntry) {
  // The satellite regression: a short write during disk spill must not
  // publish a torn .art file that a later miss could replay. The eviction
  // itself must survive and be counted.
  const std::string dir = temp_dir("shortspill");
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, dir, identity_hooks());
  cache.get_or_compute(1, [] { return std::string("first"); });

  failpoint::arm("atomicfile.write=partial_write(4)");
  cache.get_or_compute(2, [] { return std::string("second"); });  // evicts 1
  failpoint::disarm_all();

  EXPECT_EQ(count(family, "evictions"), 1u);
  EXPECT_EQ(count(family, "spill_failures"), 1u);
  EXPECT_FALSE(fs::exists(cache.spill_path(1)))
      << "torn spill must not be published";
  for (const auto& item : fs::directory_iterator(dir))
    EXPECT_NE(item.path().extension(), ".tmp")
        << "aborted spill must not leave a temp file: " << item.path();

  // Key 1 fell out of both tiers; the next request recomputes cleanly.
  int computes = 0;
  bool from_cache = true;
  auto value = cache.get_or_compute(
      1, [&] { ++computes; return std::string("recomputed"); }, &from_cache);
  EXPECT_EQ(*value, "recomputed");
  EXPECT_EQ(computes, 1);
  EXPECT_FALSE(from_cache);
  fs::remove_all(dir);
}

TEST(ArtifactCache, InjectedSpillErrorIsToleratedAndCounted) {
  const std::string dir = temp_dir("spillerr");
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, dir, identity_hooks());
  cache.get_or_compute(1, [] { return std::string("one"); });
  failpoint::arm("cache.spill=errno(28)");  // ENOSPC
  cache.get_or_compute(2, [] { return std::string("two"); });
  failpoint::disarm_all();
  EXPECT_EQ(count(family, "spill_failures"), 1u);
  EXPECT_FALSE(fs::exists(cache.spill_path(1)));
  fs::remove_all(dir);
}

TEST(ArtifactCache, BootScanQuarantinesCorruptSpillEntries) {
  // Satellite (d) in unit form: corrupt one committed spill entry, restart
  // (construct a new cache over the same dir), and assert the entry is
  // quarantined — moved, not deleted — counted, and regenerated once.
  const std::string dir = temp_dir("bootscan");
  {
    ArtifactCache<std::string> cache(1, test_family(), dir,
                                     identity_hooks());
    cache.get_or_compute(1, [] { return std::string("good one"); });
    cache.get_or_compute(2, [] { return std::string("good two"); });
    ASSERT_TRUE(fs::exists(cache.spill_path(1)));
  }
  // Flip payload bytes; the frame digest no longer matches.
  std::string path;
  for (const auto& item : fs::directory_iterator(dir))
    if (item.path().extension() == ".art") path = item.path().string();
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }

  const std::string family = test_family();
  ArtifactCache<std::string> reborn(1, family, dir, identity_hooks());
  EXPECT_EQ(count(family, "quarantined"), 1u);
  EXPECT_FALSE(fs::exists(path)) << "corrupt entry must leave the spill dir";
  EXPECT_TRUE(
      fs::exists(fs::path(reborn.quarantine_dir()) / fs::path(path).filename()))
      << "quarantine preserves the bytes as evidence";

  // The quarantined key regenerates exactly once; the intact key replays.
  int computes = 0;
  bool from_cache = true;
  auto fresh = reborn.get_or_compute(
      1, [&] { ++computes; return std::string("regenerated"); }, &from_cache);
  EXPECT_EQ(computes, 1);
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(*fresh, "regenerated");
  fs::remove_all(dir);
}

TEST(ArtifactCache, BootScanQuarantinesOrphanedTempFiles) {
  const std::string dir = temp_dir("orphantmp");
  fs::create_directories(dir);
  std::ofstream(dir + "/0000000000000005.art.tmp", std::ios::binary)
      << "half a spill";
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, dir, identity_hooks());
  EXPECT_EQ(count(family, "quarantined"), 1u);
  EXPECT_FALSE(fs::exists(dir + "/0000000000000005.art.tmp"));
  fs::remove_all(dir);
}

TEST(ArtifactCache, RuntimeCorruptionQuarantinesInsteadOfReplaying) {
  const std::string dir = temp_dir("runtimequar");
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, dir, identity_hooks());
  cache.get_or_compute(3, [] { return std::string("spilled"); });
  cache.get_or_compute(4, [] { return std::string("evictor"); });
  const std::string path = cache.spill_path(3);
  ASSERT_TRUE(fs::exists(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  int computes = 0;
  auto value =
      cache.get_or_compute(3, [&] { ++computes; return std::string("new"); });
  EXPECT_EQ(*value, "new");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(count(family, "quarantined"), 1u);
  EXPECT_FALSE(fs::exists(path));
  fs::remove_all(dir);
}

TEST(ArtifactCache, StaleTierServesDegradedWhenComputeFails) {
  // No disk tier: memory + stale only.
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, "", {}, /*stale_tier=*/true);
  cache.get_or_compute(1, [] { return std::string("last good"); });
  cache.get_or_compute(2, [] { return std::string("evictor"); });  // 1 gone

  bool from_cache = false;
  bool degraded = false;
  auto value = cache.get_or_compute(
      1, [&]() -> std::string { throw Error("backend down"); }, &from_cache,
      &degraded);
  EXPECT_EQ(*value, "last good");
  EXPECT_TRUE(degraded);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(count(family, "stale_served"), 1u);

  // The slot is freed: the next request retries a fresh compute instead of
  // serving stale forever.
  degraded = false;
  auto healed = cache.get_or_compute(
      1, [] { return std::string("fresh again"); }, &from_cache, &degraded);
  EXPECT_EQ(*healed, "fresh again");
  EXPECT_FALSE(degraded);
}

TEST(ArtifactCache, ComputeFailureWithoutStalePermissionStillThrows) {
  ArtifactCache<std::string> cache(1, test_family());
  cache.get_or_compute(1, [] { return std::string("good"); });
  cache.get_or_compute(2, [] { return std::string("evictor"); });
  EXPECT_THROW(cache.get_or_compute(
                   1, [&]() -> std::string { throw Error("backend down"); }),
               Error);
}

TEST(ArtifactCache, DeadlineExpiryNeverServesStale) {
  // Stale-on-timeout would disguise a 504 as a 200: the deadline must win.
  const std::string family = test_family();
  ArtifactCache<std::string> cache(1, family, "", {}, /*stale_tier=*/true);
  cache.get_or_compute(1, [] { return std::string("good"); });
  cache.get_or_compute(2, [] { return std::string("evictor"); });
  bool degraded = false;
  try {
    cache.get_or_compute(
        1,
        []() -> std::string { throw DeadlineExceeded("generate.partition"); },
        nullptr, &degraded);
    FAIL() << "expired deadline must throw";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.stage(), "generate.partition");
  }
  EXPECT_FALSE(degraded);
  EXPECT_EQ(count(family, "stale_served"), 0u);
}

TEST(ArtifactCache, ACacheWithoutTheStaleTierKeepsNoEvictedValueAlive) {
  // Nothing can read an evicted value back from a cache without a stale
  // tier, so nothing may keep it alive there.
  ArtifactCache<std::string> cache(1, test_family());
  std::weak_ptr<const std::string> evicted =
      cache.get_or_compute(1, [] { return std::string("first"); });
  cache.get_or_compute(2, [] { return std::string("evictor"); });
  EXPECT_TRUE(evicted.expired());
}

/// Every series registered under `family`, without the family prefix,
/// sorted.
std::vector<std::string> exposed_series(const std::string& family) {
  const telemetry::MetricsSnapshot snapshot = telemetry::registry().snapshot();
  const std::string prefix = family + ".";
  std::vector<std::string> names;
  const auto collect = [&](const std::string& name) {
    if (name.rfind(prefix, 0) == 0) names.push_back(name.substr(prefix.size()));
  };
  for (const auto& counter : snapshot.counters) collect(counter.name);
  for (const auto& gauge : snapshot.gauges) collect(gauge.name);
  std::sort(names.begin(), names.end());
  return names;
}

TEST(ArtifactCache, RegistersOnlyTheSeriesItsTiersCanMove) {
  // Families of their own: test_family() registers every series.
  const std::string base = "test.cache_series.";
  const std::string dir = temp_dir("series");
  {
    const ArtifactCache<int> memory(2, base + "memory");
    const ArtifactCache<std::string> disk(2, base + "disk", dir,
                                          identity_hooks());
    const ArtifactCache<int> stale(2, base + "stale", "", {},
                                   /*stale_tier=*/true);
  }
  using Names = std::vector<std::string>;
  EXPECT_EQ(exposed_series(base + "memory"),
            (Names{"evictions", "hits", "misses", "resident"}));
  EXPECT_EQ(exposed_series(base + "disk"),
            (Names{"disk_hits", "evictions", "hits", "misses", "quarantined",
                   "resident", "spill_failures"}));
  EXPECT_EQ(exposed_series(base + "stale"),
            (Names{"evictions", "hits", "misses", "resident", "stale_served"}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace picp::serve
